"""Core performance benchmark runner — emits ``BENCH_core.json``.

Tracks the perf trajectory of the hot paths the paper's pipeline leans on:

* **micro**: GPVW translation of deep ``X``-chains (the discrete-time
  encoding of Section IV-E produces chains up to depth 180), measured both
  *cold* (caches cleared between calls) and as a *loop* of repeated
  translations of the same formula — the workload the partition-repair and
  localization loops generate.
* **end_to_end**: the three Table I case-study blocks (CARA, TELEPROMISE,
  robot) run through the full SpecCC pipeline, with their verdicts recorded
  so speedups can never silently change results.
* **incremental_semantics** (schema ``/2``): the analysis-graph scenario —
  a document of antonym-coupled sentence pairs, single-sentence edits
  re-checked through one long-lived session.  Records how many sentences
  Algorithm 1 actually re-analysed per edit (the graph bounds it to the
  edited subject's sentences) and the speedup over fresh per-edit checks.
* **tracing_overhead** (schema ``/3``): the 13-document corpus of CARA's
  Table I component blocks checked untraced and under a live process tracer
  (:mod:`repro.obs`), asserting the always-compiled-in instrumentation
  stays within a 5% overhead budget when tracing is on (the tracing-off
  path is a shared null span and costs one global read per site).

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_core.py                 # -> BENCH_core.json
    PYTHONPATH=src python benchmarks/bench_core.py --quick         # smoke run (CI)
    PYTHONPATH=src python benchmarks/bench_core.py --save-baseline # refresh baseline_core.json

When ``benchmarks/baseline_core.json`` exists (recorded on the pre-interning
seed code), the report embeds it under ``"baseline"`` and computes
``"speedup"`` ratios per benchmark.  The script intentionally has no
dependency on the caching internals: it probes for the cache-clearing hooks
with ``getattr`` so it runs unmodified on older revisions.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import SpecCC, SpecCCConfig, TranslationOptions  # noqa: E402
from repro.automata import gpvw  # noqa: E402
from repro.casestudies import (  # noqa: E402
    TABLE_INSTANCES,
    application_requirements,
    component_requirements,
    mode_switching_requirements,
    robot_requirements,
)
from repro.logic.ast import Atom, next_chain  # noqa: E402

SCHEMA = "repro-bench-core/3"
BASELINE_PATH = Path(__file__).resolve().parent / "baseline_core.json"


def _clear_caches() -> None:
    """Drop every translation/formula cache the current revision exposes,
    including the per-node memos on live formulas (so "cold" timings really
    re-run NNF/simplify/sort-key work, not just the tableau)."""
    clear = getattr(gpvw, "clear_translation_cache", None)
    if clear is not None:
        clear()
    from repro.logic import ast as logic_ast

    clear = getattr(logic_ast, "clear_node_caches", None)
    if clear is not None:
        clear()
    # Pre-interning revisions memoise with functools.lru_cache instead.
    from repro.logic import nnf, rewrite

    for fn in (nnf.to_nnf, rewrite.simplify, getattr(logic_ast, "next_depth", None)):
        cache_clear = getattr(fn, "cache_clear", None)
        if cache_clear is not None:
            cache_clear()
    try:
        from repro.synthesis import realizability

        clear = getattr(realizability, "clear_caches", None)
        if clear is not None:
            clear()
    except ImportError:  # pragma: no cover - very old revisions
        pass


def _time(action: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - start)
    return best


def bench_micro(quick: bool) -> Dict[str, Dict[str, float]]:
    depths = (50, 150) if quick else (50, 100, 150)
    loop_iterations = 4 if quick else 8
    results: Dict[str, Dict[str, float]] = {}
    for depth in depths:
        chain = next_chain(Atom("p"), depth)

        def cold() -> None:
            _clear_caches()
            gpvw.translate(chain)

        def loop() -> None:
            _clear_caches()
            for _ in range(loop_iterations):
                gpvw.translate(chain)

        results[f"gpvw_xchain_depth{depth}"] = {
            "cold_seconds": _time(cold, 2 if quick else 7),
            "loop_seconds": _time(loop, 1 if quick else 3),
            "loop_iterations": loop_iterations,
        }
    return results


def _paper_tool() -> SpecCC:
    return SpecCC(SpecCCConfig(translation=TranslationOptions(next_as_x=False)))


def bench_end_to_end(quick: bool) -> Dict[str, Dict[str, object]]:
    results: Dict[str, Dict[str, object]] = {}

    def run(name: str, batches: List) -> None:
        _clear_caches()
        tool = _paper_tool()
        verdicts = []
        start = time.perf_counter()
        for requirements in batches:
            report = tool.check(requirements)
            verdicts.append(report.verdict.value)
        results[name] = {
            "seconds": time.perf_counter() - start,
            "verdicts": verdicts,
            "consistent": all(v == "realizable" for v in verdicts),
        }

    cara = [mode_switching_requirements()]
    if not quick:
        cara.extend(reqs for _, reqs in sorted(component_requirements().items()))
    run("table1_cara", cara)

    tele = sorted(application_requirements().items())
    if quick:
        tele = tele[:2]
    run("table1_telepromise", [reqs for _, reqs in tele])

    robots = sorted(TABLE_INSTANCES.values())
    if quick:
        robots = robots[:1]
    run("table1_robot", [robot_requirements(r, n) for r, n in robots])
    return results


# ---------------------------------------------------- incremental semantics
def _semantic_workload(groups: int) -> List[tuple]:
    """2 * groups sentences: each group's subject carries an antonym pair,
    so Algorithm 1 forms one analysis unit per group."""
    requirements = []
    for group in range(1, groups + 1):
        requirements.append(
            (
                f"A{group}",
                f"If the sensor {group} is active, the device {group} is started.",
            )
        )
        requirements.append(
            (
                f"B{group}",
                f"If the sensor {group} is inactive, the device {group} is stopped.",
            )
        )
    return requirements


def bench_incremental_semantics(quick: bool) -> Dict[str, object]:
    """Edit 1 of 2N sentences; count what Algorithm 1 re-analyses."""
    from repro import SpecSession

    groups = 6 if quick else 20
    edits = 3 if quick else 10
    requirements = _semantic_workload(groups)

    edit_sequence = []
    for edit in range(edits):
        group = (edit * 7) % groups + 1
        adjective = "normal" if edit % 2 == 0 else "active"
        edit_sequence.append(
            (
                f"A{group}",
                f"If the sensor {group} is {adjective}, "
                f"the device {group} is started.",
            )
        )

    # Incremental: one session over the analysis graph.
    _clear_caches()
    session = SpecSession(_paper_tool())
    for identifier, sentence in requirements:
        session.add(identifier, sentence)
    first = session.check()
    incremental_verdicts = []
    sentences_reanalysed = []
    units_replayed = []
    start = time.perf_counter()
    for identifier, sentence in edit_sequence:
        session.update(identifier, sentence)
        report = session.check()
        incremental_verdicts.append(report.verdict.value)
        sentences_reanalysed.append(len(report.delta.semantics_reanalysed))
        units_replayed.append(report.delta.semantics_misses)
    incremental_seconds = time.perf_counter() - start

    # Fresh: a cold full check per edit (what the one-shot CLI costs).
    state = dict(requirements)
    fresh_verdicts = []
    start = time.perf_counter()
    for identifier, sentence in edit_sequence:
        state[identifier] = sentence
        _clear_caches()
        fresh_verdicts.append(
            _paper_tool().check(list(state.items())).verdict.value
        )
    fresh_seconds = time.perf_counter() - start

    return {
        "sentences": len(requirements),
        "analysis_units": first.delta.semantics_components,
        "edits": edits,
        "incremental_seconds": incremental_seconds,
        "fresh_seconds": fresh_seconds,
        "speedup": round(fresh_seconds / incremental_seconds, 2)
        if incremental_seconds > 0
        else None,
        "sentences_reanalysed_per_edit": sentences_reanalysed,
        "max_sentences_reanalysed_per_edit": max(sentences_reanalysed),
        "units_replayed_per_edit": units_replayed,
        "max_units_replayed_per_edit": max(units_replayed),
        "verdicts_match": incremental_verdicts == fresh_verdicts,
    }


# -------------------------------------------------------- tracing overhead
def bench_tracing_overhead(quick: bool) -> Dict[str, object]:
    """Traced vs. untraced full-pipeline checks over the 13-doc corpus —
    the paper's own workload: CARA's 13 Table I component requirement
    blocks, each checked as one document.

    Both passes start cache-cold and rebuild the tool, so the only
    difference is whether a process tracer is installed.  Best-of-N
    timing on each side squeezes out scheduler noise before the ratio.
    """
    from repro.obs.trace import Tracer, set_process_tracer

    documents = [reqs for _, reqs in sorted(component_requirements().items())]
    repeats = 2 if quick else 5

    def run_corpus() -> None:
        _clear_caches()
        tool = _paper_tool()
        for requirements in documents:
            tool.check(requirements)

    untraced_seconds = _time(run_corpus, repeats)

    spans = 0

    def run_traced() -> None:
        nonlocal spans
        tracer = Tracer(name="bench")
        previous = set_process_tracer(tracer)
        try:
            run_corpus()
        finally:
            set_process_tracer(previous)
        spans = len(tracer.records())

    traced_seconds = _time(run_traced, repeats)
    overhead = (
        (traced_seconds / untraced_seconds - 1.0) * 100.0
        if untraced_seconds > 0
        else 0.0
    )
    return {
        "documents": len(documents),
        "repeats": repeats,
        "untraced_seconds": untraced_seconds,
        "traced_seconds": traced_seconds,
        "overhead_percent": round(overhead, 2),
        "spans": spans,
        "within_budget": overhead <= 5.0,
    }


def _flat_times(report: Dict) -> Dict[str, float]:
    """Map benchmark name -> headline seconds, for speedup ratios."""
    flat: Dict[str, float] = {}
    for name, data in report.get("micro", {}).items():
        flat[f"{name}:cold"] = data["cold_seconds"]
        flat[f"{name}:loop"] = data["loop_seconds"]
    for name, data in report.get("end_to_end", {}).items():
        flat[name] = data["seconds"]
    return flat


def build_report(quick: bool) -> Dict:
    report: Dict = {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "micro": bench_micro(quick),
        "end_to_end": bench_end_to_end(quick),
        "incremental_semantics": bench_incremental_semantics(quick),
        "tracing_overhead": bench_tracing_overhead(quick),
    }
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        report["baseline"] = baseline
        # Baseline numbers are only comparable when both runs covered the
        # same depths/rows (a --quick run against a full baseline is not).
        if baseline.get("quick", False) == quick:
            base_times = _flat_times(baseline)
            now_times = _flat_times(report)
            report["speedup"] = {
                name: round(base_times[name] / seconds, 2)
                for name, seconds in now_times.items()
                if name in base_times and seconds > 0
            }
        # Speedups are only meaningful when they do not change results.  A
        # --quick run checks the first rows of each block, so it is held to
        # the same rows of the baseline.
        report["verdicts_match_baseline"] = all(
            data["verdicts"]
            == baseline["end_to_end"][name]["verdicts"][
                : len(data["verdicts"]) if quick else None
            ]
            for name, data in report["end_to_end"].items()
            if name in baseline.get("end_to_end", {})
        )
    return report


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_core.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced depths/rows for CI smoke runs",
    )
    parser.add_argument(
        "--save-baseline", action="store_true",
        help="also write the timings to benchmarks/baseline_core.json",
    )
    args = parser.parse_args(argv)

    report = build_report(quick=args.quick)
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.save_baseline:
        baseline = {k: report[k] for k in ("schema", "quick", "python", "platform", "micro", "end_to_end")}
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")

    for name, seconds in sorted(_flat_times(report).items()):
        ratio = report.get("speedup", {}).get(name)
        suffix = f"  ({ratio:.2f}x vs baseline)" if ratio else ""
        print(f"{name:<40} {seconds:>10.4f}s{suffix}")
    semantics = report["incremental_semantics"]
    print(
        f"incremental_semantics: <= {semantics['max_sentences_reanalysed_per_edit']}"
        f"/{semantics['sentences']} sentences re-analysed per edit, "
        f"{semantics['speedup']}x vs fresh per-edit checks"
    )
    tracing = report["tracing_overhead"]
    print(
        f"tracing_overhead: {tracing['overhead_percent']}% over "
        f"{tracing['documents']} documents ({tracing['spans']} spans; "
        f"budget 5%: {'ok' if tracing['within_budget'] else 'EXCEEDED'})"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
