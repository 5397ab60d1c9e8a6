#!/usr/bin/env python3
"""Self-tests of the benchmark harness alone (not of the program).

    python3 perfbench/selftest.py

Checks the self-time accounting on a synthetic nested call, that every
oracle flags a deliberately wrong answer, and that a seed reproduces
byte-identical inputs, also across interpreter hash seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import inputs  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
from inputs import Expected  # noqa: E402


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class SelfTime(unittest.TestCase):
    def setUp(self) -> None:
        module = types.ModuleType("perfbench_synthetic")

        def leaf():
            _spin(0.004)

        def middle():
            _spin(0.002)
            module.leaf()
            module.leaf()

        def outer():
            _spin(0.003)
            module.middle()
            return "done"

        module.leaf, module.middle, module.outer = leaf, middle, outer
        sys.modules[module.__name__] = module
        self.module = module
        self.hooks = tuple(
            layers.Hook(name, f"perfbench_synthetic:{name}")
            for name in ("leaf", "middle", "outer")
        )

    def tearDown(self) -> None:
        del sys.modules[self.module.__name__]

    def test_nested_self_time(self) -> None:
        clock = layers.Clock()
        with layers.Instrumentation(clock, self.hooks, tracer=False):
            with clock.request():
                _spin(0.001)
                self.assertEqual(self.module.outer(), "done")
        stats = clock.layers
        self.assertEqual(stats["leaf"].calls, 2)
        self.assertEqual(stats["middle"].calls, 1)
        self.assertEqual(stats["outer"].calls, 1)
        for name, expected in (("leaf", 0.008), ("middle", 0.002), ("outer", 0.003), ("request", 0.001)):
            self.assertAlmostEqual(stats[name].self_ns / 1e9, expected, delta=0.0015, msg=name)

    def test_self_times_add_up_to_the_request(self) -> None:
        clock = layers.Clock()
        with layers.Instrumentation(clock, self.hooks, tracer=False):
            with clock.request() as request:
                self.module.outer()
                _spin(0.001)
                self.module.leaf()
        total = sum(stats.self_ns for stats in clock.layers.values())
        self.assertEqual(total, request.elapsed_ns)

    def test_calls_outside_a_request_pass_through(self) -> None:
        clock = layers.Clock()
        with layers.Instrumentation(clock, self.hooks, tracer=False):
            self.module.outer()
        self.assertEqual(clock.layers, {})

    def test_originals_restored(self) -> None:
        original = self.module.leaf
        with layers.Instrumentation(layers.Clock(), self.hooks, tracer=False):
            self.assertIsNot(self.module.leaf, original)
        self.assertIs(self.module.leaf, original)

    def test_every_program_hook_resolves(self) -> None:
        for hook in layers.HOOKS:
            owner, attr = layers._resolve(hook.target)
            self.assertTrue(callable(getattr(owner, attr)), hook.target)


class Oracles(unittest.TestCase):
    def test_table1_flags_wrong_verdict_and_repairs(self) -> None:
        for doc in inputs.table1_documents(1):
            expected = doc.expected
            right_repairs = expected.repairs
            self.assertEqual(oracles.judge(expected, "realizable", right_repairs, []), oracles.OK)
            self.assertEqual(oracles.judge(expected, "unrealizable", right_repairs, []), oracles.WRONG)
            self.assertEqual(oracles.judge(expected, "realizable", right_repairs + 1, []), oracles.WRONG)
            self.assertEqual(oracles.judge(expected, "unknown", right_repairs, []), oracles.UNDECIDED)

    def test_faults_flag_wrong_answers(self) -> None:
        for doc in inputs.fault_documents(1):
            expected = doc.expected
            if doc.regime == "clean":
                self.assertEqual(oracles.judge(expected, "realizable", 0, []), oracles.OK)
                self.assertEqual(oracles.judge(expected, "realizable", 1, []), oracles.WRONG)
                self.assertEqual(oracles.judge(expected, "unrealizable", 0, ["x"]), oracles.WRONG)
            elif doc.regime == "pair":
                self.assertEqual(oracles.judge(expected, "realizable", 1, []), oracles.OK)
                self.assertEqual(oracles.judge(expected, "realizable", 0, []), oracles.WRONG)
                self.assertEqual(oracles.judge(expected, "unrealizable", 3, []), oracles.WRONG)
            else:
                ids = ["fault-2", "fault-1"]
                self.assertEqual(oracles.judge(expected, "unrealizable", 3, ids), oracles.OK)
                self.assertEqual(oracles.judge(expected, "unrealizable", 3, ids[:1]), oracles.WRONG)
                self.assertEqual(
                    oracles.judge(expected, "unrealizable", 3, ids + [f"{doc.name}-01"]),
                    oracles.WRONG,
                )
                self.assertEqual(oracles.judge(expected, "realizable", 0, []), oracles.WRONG)

    def test_sessions_flag_wrong_answers(self) -> None:
        contradictions = 0
        for session in inputs.edit_sessions(1):
            for edit in session.edits:
                expected = edit.expected
                present = expected.verdict == "unrealizable"
                contradictions += present
                flipped = "realizable" if present else "unrealizable"
                self.assertEqual(
                    oracles.judge(expected, expected.verdict, 0, list(expected.culprits)),
                    oracles.OK,
                )
                self.assertEqual(oracles.judge(expected, flipped, 0, []), oracles.WRONG)
        self.assertEqual(contradictions, inputs.SESSION_SCALES)

    def test_error_response_is_a_failure(self) -> None:
        expected = Expected("realizable")
        self.assertEqual(oracles.judge_response(expected, {"ok": False, "error": "x"}), oracles.FAILED)
        wrong = {"ok": True, "report": {"verdict": "unrealizable", "repair_attempts": 0, "culprits": []}}
        self.assertEqual(oracles.judge_response(expected, wrong), oracles.WRONG)


class Reproducible(unittest.TestCase):
    def test_same_seed_same_inputs(self) -> None:
        self.assertEqual(inputs.fingerprint(7), inputs.fingerprint(7))
        self.assertNotEqual(inputs.fingerprint(7), inputs.fingerprint(8))

    def test_same_inputs_across_hash_seeds(self) -> None:
        code = (
            "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
            "import inputs; print(inputs.fingerprint(7))"
        )
        prints = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [sys.executable, "-c", code, str(HERE), str(run.SRC)],
                capture_output=True, text=True, env=env, check=True, timeout=120,
            )
            prints.add(done.stdout.strip())
        self.assertEqual(prints, {inputs.fingerprint(7)})


if __name__ == "__main__":
    unittest.main()
