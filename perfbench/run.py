#!/usr/bin/env python3
"""The repository benchmark: SpecCC's consistency loop, end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 20 --trace 0

Workloads (inputs are generated from ``--seed``; see ``inputs.py``):

* ``table1-cold``   — the 22 Table I documents, each checked by a fresh tool
  after every cache is cleared;
* ``faults-seeded`` — generated documents, clean / with an input-input
  conflict pair / with an unconditional contradiction;
* ``edit-session``  — one in-process ``serve`` loop per document, driven by a
  scripted client: add/update/remove edits, each followed by ``check``.

One client, closed loop: the next request goes out when the previous answer
is in.  The program is imported from ``src/`` of the checkout.  Every answer
is judged against a known answer (``oracles.py``).  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries per-layer self time and counts (``layers.py``), measured on passes
that alternate with untraced ones.  The line before it is a JSON detail
record (sample counts, failure kinds, set-up probes).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("table1-cold", "faults-seeded", "edit-session")
#: Percentiles need at least ten samples beyond p90.
MIN_SAMPLES = 100
#: Untraced and traced passes each, in a ``--trace 1`` run.
MIN_TRACE_PASSES = 2
#: No new pass starts after this many seconds (runs must end within 180 s).
HARD_STOP_S = 120.0
SETUP_PROBES = 15
#: Requirements of the untimed warm-up check in set-up.
WARMUP = (
    ("W1", "If the sensor is active, the valve is opened."),
    ("W2", "If the sensor is normal, the valve is not opened."),
)


def import_program():
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}\n")
        raise SystemExit(2)
    return repro


def paper_tool():
    """The configuration the Table I benchmarks use."""
    from repro import SpecCC, SpecCCConfig, TranslationOptions

    return SpecCC(SpecCCConfig(translation=TranslationOptions(next_as_x=False)))


def clear_caches() -> None:
    """Drop every process-wide cache, as ``benchmarks/bench_core.py`` does.

    The hooks are called directly: a revision that renames or drops one
    fails the run instead of silently measuring warm caches as cold.  NNF,
    ``simplify`` and ``next_depth`` memoise on the formula nodes, which
    ``clear_node_caches`` resets."""
    from repro.automata import gpvw
    from repro.logic import ast
    from repro.synthesis import realizability

    gpvw.clear_translation_cache()
    ast.clear_node_caches()
    realizability.clear_caches()


# ----------------------------------------------------------------- results
@dataclass
class Tally:
    """Outcomes and latencies of the requests of some passes."""

    latencies: List[float] = field(default_factory=list)
    keys: List[str] = field(default_factory=list)  # which input, per latency
    outcomes: Dict[str, int] = field(default_factory=dict)
    failures: Dict[str, int] = field(default_factory=dict)
    request_s: float = 0.0  # summed request latencies
    wall_s: float = 0.0  # measured wall time (set-up work excluded)

    def record(self, key: str, latency: float, outcome: str, failure: str = "") -> None:
        self.keys.append(key)
        self.latencies.append(latency)
        self.request_s += latency
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if failure:
            self.failures[failure] = self.failures.get(failure, 0) + 1

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.keys += other.keys
        self.request_s += other.request_s
        self.wall_s += other.wall_s
        for mine, theirs in ((self.outcomes, other.outcomes), (self.failures, other.failures)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value

    def count(self, outcome: str) -> int:
        return self.outcomes.get(outcome, 0)


def _failure(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"[:120]


# --------------------------------------------------------------- workloads
class Workload:
    """One pass = every generated input once."""

    def run_pass(self, index: int, request: Callable) -> Tally:
        raise NotImplementedError

    def open_sessions(self) -> float:
        """Seconds spent opening sessions in one pass (part of set-up)."""
        return 0.0


class DocumentWorkload(Workload):
    """Cold checks of whole documents through ``SpecCC.check``."""

    def __init__(self, documents) -> None:
        self.documents = documents

    def run_pass(self, index: int, request: Callable) -> Tally:
        from oracles import FAILED, judge_report

        tally = Tally()
        start = time.perf_counter()
        for doc in self.documents:
            clear_caches()
            tool = paper_tool()
            requirements = list(doc.requirements)
            failure = ""
            with request():
                began = time.perf_counter()
                try:
                    report = tool.check(requirements)
                except Exception as error:  # noqa: BLE001 - counted, not fatal
                    report, failure = None, _failure(error)
                latency = time.perf_counter() - began
            outcome = FAILED if report is None else judge_report(doc.expected, report)
            tally.record(doc.name, latency, outcome, failure)
        tally.wall_s = time.perf_counter() - start
        return tally


class ScriptedClient:
    """stdin and stdout of one ``serve`` loop: hands out the session's
    request lines one at a time and timestamps each line and response."""

    def __init__(self, session, edits: bool, request: Optional[Callable] = None) -> None:
        check = json.dumps({"op": "check", "timings": False}) + "\n"
        self.lines = [json.dumps({"op": "load", "document": session.document}) + "\n", check]
        if edits:
            for edit in session.edits:
                self.lines += [json.dumps(edit.request) + "\n", check]
        self.sent: List[float] = []
        self.received: List[float] = []
        self.responses: List[str] = []
        self.request = request
        self._open = None

    def readline(self) -> str:
        index = len(self.sent)
        if index >= len(self.lines):
            return ""
        if self.request is not None and index >= 2 and index % 2 == 0:
            self._open = self.request()  # an edit+check pair starts
            self._open.__enter__()
        self.sent.append(time.perf_counter())
        return self.lines[index]

    def write(self, text: str) -> None:
        self.received.append(time.perf_counter())
        self.responses.append(text)
        if self._open is not None and len(self.received) % 2 == 0:
            self._open.__exit__(None, None, None)
            self._open = None

    def flush(self) -> None:
        pass

    def response(self, index: int) -> dict:
        return json.loads(self.responses[index])

    def opening_s(self) -> float:
        return self.received[1] - self.sent[0]


class EditSessionWorkload(Workload):
    def __init__(self, seed: int) -> None:
        from inputs import edit_sessions

        self.sessions = edit_sessions(seed)
        rng = random.Random(f"differential:{seed}")
        #: One edit per session is re-checked cold for the differential.
        self.differential = [rng.randrange(len(s.edits)) for s in self.sessions]
        self.mismatches = 0

    def _serve(self, session, edits: bool, request=None) -> ScriptedClient:
        from repro.service.server import serve

        clear_caches()
        client = ScriptedClient(session, edits, request)
        serve(stdin=client, stdout=client, tool=paper_tool())
        return client

    def open_sessions(self) -> float:
        return sum(self._serve(s, edits=False).opening_s() for s in self.sessions)

    def run_pass(self, index: int, request: Callable) -> Tally:
        from oracles import FAILED, judge_response

        tally = Tally()
        start = time.perf_counter()
        untimed = 0.0
        for number, session in enumerate(self.sessions):
            client = self._serve(session, edits=True, request=request)
            untimed += client.opening_s()
            opening = judge_response(session.opening, client.response(1))
            if opening != "ok":  # the session never opened: count it once
                tally.record(f"{session.name}/open", client.opening_s(), opening)
            for position, edit in enumerate(session.edits):
                key = f"{session.name}/{position}"
                mutation = client.response(2 + 2 * position)
                check = client.response(3 + 2 * position)
                latency = client.received[3 + 2 * position] - client.sent[2 + 2 * position]
                if not mutation.get("ok"):
                    tally.record(key, latency, FAILED, mutation.get("error", ""))
                    continue
                outcome = judge_response(edit.expected, check)
                tally.record(key, latency, outcome, "" if check.get("ok") else check.get("error", ""))
            if index == 0:
                began = time.perf_counter()
                self._differential(session, client, self.differential[number])
                untimed += time.perf_counter() - began
        tally.wall_s = time.perf_counter() - start - untimed
        return tally

    def _differential(self, session, client: ScriptedClient, position: int) -> None:
        """A session report must equal a fresh cold check's, byte for byte."""
        from repro.service.reportjson import report_to_dict

        response = client.response(3 + 2 * position)
        if not response.get("ok"):
            return
        clear_caches()
        try:
            fresh = report_to_dict(
                paper_tool().check(list(session.edits[position].state)), timings=False
            )
        except Exception:  # noqa: BLE001 - the session answered, the cold path did not
            fresh = None
        if json.dumps(fresh, sort_keys=True) != json.dumps(response["report"], sort_keys=True):
            self.mismatches += 1


def make_workload(name: str, seed: int) -> Workload:
    import inputs

    if name == "table1-cold":
        return DocumentWorkload(inputs.table1_documents(seed))
    if name == "faults-seeded":
        return DocumentWorkload(inputs.fault_documents(seed))
    return EditSessionWorkload(seed)


# ------------------------------------------------------------------ set-up
def probe_setup(workload: str, seed: int) -> float:
    """In a fresh process: import, build the tool, warm up, open sessions."""
    start = time.perf_counter()
    import_program()
    paper_tool().check(list(WARMUP))
    setup = time.perf_counter() - start
    return setup + make_workload(workload, seed).open_sessions()


def measure_setup(workload: str, seed: int) -> List[float]:
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return probes


# ------------------------------------------------------- measurement loop
class _NoRequest:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


def _deciles(values: List[float]) -> List[float]:
    return statistics.quantiles(values, n=10, method="inclusive")


def typical_latencies(tally: Tally) -> Dict[str, float]:
    """Each input's mean latency over the passes that ran it.

    A pass holds every input once, and a handful of inputs (two Table I
    documents, one contradiction check per session) dominate the tail, so a
    percentile of the pooled samples sits on the edge between two inputs'
    clusters and reads the noisiest samples of both (p50 of Table I's 22
    documents lies halfway between the 11th and the 12th).  Percentiles over
    per-input means interpolate between two steady values instead.  A mean,
    not a median: on a shared host the speed can drift between stretches of
    a minute or more, and a median would report whichever stretch held most
    of the run's passes."""
    by_key: Dict[str, List[float]] = {}
    for key, latency in zip(tally.keys, tally.latencies):
        by_key.setdefault(key, []).append(latency)
    return {key: statistics.fmean(values) for key, values in by_key.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()
    from layers import Clock, Instrumentation, layer_metrics

    setup = measure_setup(workload_name, seed)
    workload = make_workload(workload_name, seed)
    paper_tool().check(list(WARMUP))  # this process's own untimed warm-up

    plain, traced = Tally(), Tally()
    plain_passes: List[float] = []
    traced_passes: List[float] = []
    clock = Clock()
    start = time.perf_counter()
    index = 0
    while True:
        tracing = trace and index % 2 == 1
        if tracing:
            with Instrumentation(clock) as instrumentation:
                def request():
                    return _TracedRequest(clock, instrumentation)

                tally = workload.run_pass(index, request)
            traced.merge(tally)
            traced_passes.append(tally.request_s)
        else:
            tally = workload.run_pass(index, _NoRequest)
            plain.merge(tally)
            plain_passes.append(tally.request_s)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            break
        if trace:
            enough = min(len(plain_passes), len(traced_passes)) >= MIN_TRACE_PASSES
        else:
            enough = len(plain.latencies) >= MIN_SAMPLES
        if elapsed >= seconds and enough:
            break

    total = Tally()
    total.merge(plain)
    total.merge(traced)
    mismatches = getattr(workload, "mismatches", 0)
    wrong = total.count("wrong") + mismatches
    attempted = len(total.latencies)
    failed = total.count("failed")
    typical = typical_latencies(plain)
    deciles = _deciles(list(typical.values()))
    p50, p90 = deciles[4], deciles[8]
    above = [key for key, mean in typical.items() if mean > p90]
    per_input = Counter(plain.keys)
    detail = {
        "workload": workload_name,
        "seed": seed,
        "passes": index,
        "samples": len(plain.latencies),
        # The percentiles are taken over one mean per input; these say how
        # many values that is and how many samples stand behind them.
        "inputs": len(typical),
        "inputs_above_p90": len(above),
        "samples_per_input": [min(per_input.values()), max(per_input.values())],
        "samples_above_p90": sum(per_input[key] for key in above),
        "wrong_answers": wrong,
        "differential_mismatches": mismatches,
        "undecided": total.count("undecided"),
        "failed": failed,
        "failures": total.failures,
        "setup_probes_s": setup,
    }
    if trace:
        overhead = statistics.median(traced_passes) / statistics.median(plain_passes) - 1
        layers = layer_metrics(clock, len(traced_passes))
        layers["tracing_overhead_pct"] = (100.0 * overhead, "%")
        detail["probe_ms_per_pass"] = clock.stats(Clock.PROBE).self_ns / 1e6 / len(traced_passes)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        completed = attempted - failed
        # A failed request decided nothing, just like an ``unknown`` one.
        decided = completed - total.count("undecided")
        metrics = {
            "latency_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
            "throughput_rps": {"value": completed / plain.wall_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "answered_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
            "decided_ratio": {"value": decided / attempted, "unit": "ratio"},
            "sound_ratio": {"value": 1 - wrong / attempted, "unit": "ratio"},
        }
    print(json.dumps(detail, sort_keys=True))
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


class _TracedRequest:
    """A root frame for one request; drains the program's tracer after it."""

    def __init__(self, clock, instrumentation) -> None:
        self.inner = clock.request()
        self.instrumentation = instrumentation

    def __enter__(self):
        self.inner.__enter__()
        return self

    def __exit__(self, *exc):
        self.inner.__exit__(*exc)
        self.instrumentation.drain()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        print(json.dumps({"setup_s": probe_setup(args.workload, args.seed)}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
