"""Ablation: synthesis engine comparison and modular decomposition.

Design choices called out in DESIGN.md:

* the k-co-Büchi safety game (G4LTL's algorithm) vs SAT-based bounded
  synthesis on the same small specifications;
* variable-partitioned modular checking vs monolithic checking;
* the CDCL SAT solver vs the brute-force reference on the bounded-
  synthesis encodings.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.logic import parse
from repro.sat import CNF, solve
from repro.synthesis import (
    Engine,
    SynthesisLimits,
    Verdict,
    check_realizability,
)

# The brute-force solver is the test suite's oracle (tests/reference/).
TESTS = str(Path(__file__).resolve().parent.parent / "tests")
if TESTS not in sys.path:
    sys.path.insert(0, TESTS)
from reference.sat import solve_brute  # noqa: E402

SPECS = [
    ("request/grant", ["G (r -> X g)"], ["r"], ["g"]),
    ("progress", ["G (r -> F g)", "G (c -> !g)"], ["r", "c"], ["g"]),
    ("clairvoyant", ["G (g <-> X X i)"], ["i"], ["g"]),
    ("arbiter", ["G (r1 -> F g1)", "G (r2 -> F g2)", "G (!g1 || !g2)"],
     ["r1", "r2"], ["g1", "g2"]),
]

NO_OBLIGATIONS = SynthesisLimits(use_obligations=False)


def test_engine_comparison(capsys):
    lines = [f"{'spec':<14} {'game':>10} {'bounded-SAT':>12} verdict"]
    for name, texts, inputs, outputs in SPECS:
        formulas = [parse(t) for t in texts]
        start = time.perf_counter()
        game = check_realizability(
            formulas, inputs, outputs,
            engine=Engine.SAFETY_GAME, limits=NO_OBLIGATIONS,
        )
        game_seconds = time.perf_counter() - start
        start = time.perf_counter()
        bounded = check_realizability(
            formulas, inputs, outputs,
            engine=Engine.BOUNDED_SAT, limits=NO_OBLIGATIONS,
        )
        bounded_seconds = time.perf_counter() - start
        assert game.verdict == bounded.verdict, name
        lines.append(
            f"{name:<14} {game_seconds:>9.3f}s {bounded_seconds:>11.3f}s "
            f"{game.verdict.value}"
        )
    with capsys.disabled():
        print("\nAblation — engine comparison (verdicts must agree)")
        print("\n".join(lines))


def test_modular_vs_monolithic(capsys):
    # Ten independent request/grant pairs: modular checking splits them
    # into ten 2-variable games; monolithic checking sees 20 variables and
    # must give up (the explicit alphabet is out of reach).
    formulas = [parse(f"G (r{k} -> X g{k})") for k in range(10)]
    inputs = [f"r{k}" for k in range(10)]
    outputs = [f"g{k}" for k in range(10)]

    start = time.perf_counter()
    modular = check_realizability(
        formulas, inputs, outputs, modular=True, limits=NO_OBLIGATIONS
    )
    modular_seconds = time.perf_counter() - start
    assert modular.verdict is Verdict.REALIZABLE
    assert len(modular.components) == 10

    monolithic = check_realizability(
        formulas, inputs, outputs, modular=False, limits=NO_OBLIGATIONS
    )
    assert monolithic.verdict is Verdict.UNKNOWN  # too many variables

    with capsys.disabled():
        print("\nAblation — modular decomposition")
        print(f"  modular   : realizable in {modular_seconds:.3f}s (10 components)")
        print("  monolithic: unknown (20 variables exceed the explicit engines)")


def test_cdcl_vs_brute_force(capsys):
    import random

    rng = random.Random(7)
    cnf = CNF()
    for _ in range(60):
        clause = []
        for _ in range(3):
            var = rng.randint(1, 14)
            clause.append(var if rng.random() < 0.5 else -var)
        cnf.add(clause)
    cnf.num_vars = 14

    start = time.perf_counter()
    cdcl_result = bool(solve(cnf))
    cdcl_seconds = time.perf_counter() - start
    start = time.perf_counter()
    brute_result = solve_brute(cnf) is not None
    brute_seconds = time.perf_counter() - start
    assert cdcl_result == brute_result
    with capsys.disabled():
        print("\nAblation — CDCL vs brute force (14 vars, 60 clauses)")
        print(f"  CDCL : {cdcl_seconds * 1000:.2f} ms")
        print(f"  brute: {brute_seconds * 1000:.2f} ms")


def test_game_engine_benchmark(benchmark):
    formulas = [parse("G (r -> F g)"), parse("G (g -> X !g)")]
    result = benchmark(
        check_realizability,
        formulas,
        ["r"],
        ["g"],
        engine=Engine.SAFETY_GAME,
        limits=NO_OBLIGATIONS,
    )
    assert result.verdict is Verdict.REALIZABLE
