"""Per-layer self time, measured from outside the program.

Each layer is a set of functions the pipeline calls by name.  A wrapper is
patched in *where the name is looked up*: the realizability module does
``from ..automata.ltlsat import satisfiable``, so the pre-check is wrapped
as ``repro.synthesis.realizability.satisfiable``; methods are wrapped on
their class.  A call's self time is its duration minus the durations of
the wrapped calls nested inside it.  The harness opens one root frame per
request; the root's self time is the request's wall time that no wrapped
layer covers (``unattributed_ms``).

Calls made outside any request (set-up, cache clearing) run unwrapped in
effect: a wrapper with no open frame below it passes straight through.
The accounting is single-threaded, like the benchmark's one client.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class Clock:
    """A stack of open frames; every closed frame books its self time."""

    ROOT = "request"
    PROBE = "bench.probe"  # the wrappers' own counter reads

    def __init__(self) -> None:
        self.stack: List[List[int]] = []  # [start_ns, nested_ns]
        self.layers: Dict[str, LayerStats] = {}

    def stats(self, layer: str) -> LayerStats:
        found = self.layers.get(layer)
        if found is None:
            found = self.layers[layer] = LayerStats()
        return found

    def open(self) -> List[int]:
        frame = [_now(), 0]
        self.stack.append(frame)
        return frame

    def close(self, layer: str, frame: List[int]) -> int:
        elapsed = _now() - frame[0]
        popped = self.stack.pop()
        if popped is not frame:  # pragma: no cover - guards the invariant
            raise RuntimeError("wrapped calls closed out of order")
        if self.stack:
            self.stack[-1][1] += elapsed
        stats = self.stats(layer)
        stats.calls += 1
        stats.self_ns += elapsed - frame[1]
        return elapsed

    def request(self) -> "_Request":
        return _Request(self)

    def timed(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one call of *layer*."""
        if not self.stack:
            return fn(*args, **kwargs)
        frame = self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(layer, frame)


class _Request:
    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.frame: Optional[List[int]] = None
        self.elapsed_ns = 0

    def __enter__(self) -> "_Request":
        self.frame = self.clock.open()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_ns = self.clock.close(Clock.ROOT, self.frame)


# ------------------------------------------------------------- observers
# An observer sees (stats, result, before) after a call returns; a probe
# runs before the call and its value is passed on as *before*.


def _precheck(stats, result, before):
    stats.add("decided", int(result is None))  # unsatisfiable: verdict settled


def _translate_probe():
    from repro.automata.gpvw import translation_cache_size

    return translation_cache_size()


def _translate(stats, result, before):
    stats.add("hits", int(_translate_probe() == before))


def _obligations(stats, result, before):
    stats.add("decided", int(result.outcome.value == "realizable"))
    stats.add("cegis_iterations", result.cegis_iterations)


def _game(stats, result, before):
    stats.add("positions", result.stats.get("positions", 0))
    stats.add("pruned", result.stats.get("positions_pruned", 0))


def _bounded(stats, result, before):
    stats.add("sat_conflicts", result.solver_stats.get("conflicts", 0))


def _localization(stats, result, before):
    stats.add("checks", result.checks if result is not None else 0)


def _component_probe():
    from repro.synthesis.realizability import component_cache_info

    info = component_cache_info()
    return info.hits, info.misses


def _component(stats, result, before):
    hits, misses = _component_probe()
    stats.add("hits", hits - before[0])
    stats.add("misses", misses - before[1])


def _session(stats, result, before):
    stats.add("reanalysed", len(result.delta.reanalyzed))
    stats.add("components", len(result.delta.components))


def _repairs(stats, result, before):
    stats.add("repair_attempts", result.repair_attempts)


@dataclass(frozen=True)
class Hook:
    layer: str
    target: str  # "module:attr" or "module:Class.method"
    observe: Optional[Callable] = None
    probe: Optional[Callable] = None
    timed: bool = True  # False: count only, no frame (no self time)


_R = "repro.synthesis.realizability"
_T = "repro.translate.translator"

HOOKS: Tuple[Hook, ...] = (
    Hook("automata.ltlsat.precheck", f"{_R}:satisfiable", _precheck),
    Hook("automata.ltlsat.validity", "repro.automata.ltlsat:is_valid"),
    *(
        Hook("automata.gpvw.translate", f"{module}:translate", _translate, _translate_probe)
        for module in (
            "repro.automata.ltlsat",
            "repro.synthesis.safety_game",
            "repro.synthesis.bounded",
            "repro.synthesis.verify",
            "repro.automata.gpvw",
        )
    ),
    *(
        Hook("automata.emptiness.find_witness", f"{module}:find_witness")
        for module in (
            "repro.automata.ltlsat",
            "repro.synthesis.verify",
            "repro.automata.emptiness",
        )
    ),
    Hook("synthesis.invariants.obligations", "repro.synthesis.invariants:check_obligations", _obligations),
    Hook("sat.cdcl.solve", "repro.sat.cdcl:CDCLSolver.solve"),
    Hook("synthesis.safety_game.solve", f"{_R}:solve_game", _game),
    Hook("synthesis.bounded.solve", "repro.synthesis.bounded:IncrementalBoundedSynthesizer.solve", _bounded),
    Hook("synthesis.verify", f"{_R}:satisfies_specification"),
    Hook("synthesis.localization", "repro.core.pipeline:localize", _localization),
    Hook("synthesis.realizability.component", f"{_R}:check_component", _component, _component_probe),
    Hook("synthesis.modular", f"{_R}:decompose"),
    Hook("core.pipeline", "repro.core.pipeline:SpecCC.check_translated", _repairs, timed=False),
    Hook("nlp.parse", f"{_T}:parse_sentence"),
    Hook("translate.semantics", f"{_T}:analyse_incremental"),
    Hook("translate.timeabs", f"{_T}:chain_lengths"),
    Hook("translate.timeabs", f"{_T}:solve_abstraction"),
    Hook("translate.timeabs", f"{_T}:rewrite_chains"),
    Hook("translate.partition", f"{_T}:partition_formulas"),
    Hook("translate.translator", f"{_T}:Translator.translate"),
    Hook("service.server.request", "repro.service.server:_Server.handle"),
    Hook("service.session.check", "repro.service.session:SpecSession.check", _session),
    Hook("service.reportjson", "repro.service.server:report_to_dict"),
)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _wrapper(clock: Clock, hook: Hook, fn: Callable) -> Callable:
    layer, observe, probe = hook.layer, hook.observe, hook.probe

    def wrapped(*args, **kwargs):
        if not clock.stack:  # outside any request: pass through
            return fn(*args, **kwargs)
        before = clock.timed(Clock.PROBE, probe) if probe is not None else None
        if hook.timed:
            result = clock.timed(layer, fn, *args, **kwargs)
        else:
            result = fn(*args, **kwargs)
            clock.stats(layer).calls += 1
        if observe is not None:
            clock.timed(Clock.PROBE, observe, clock.stats(layer), result, before)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


class Instrumentation:
    """Installs every hook (and the program's own process tracer) while
    active; ``with Instrumentation(clock):`` restores the originals."""

    def __init__(self, clock: Clock, hooks: Tuple[Hook, ...] = HOOKS, tracer: bool = True) -> None:
        self.clock = clock
        self.hooks = hooks
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []
        self._previous_tracer = None

    def __enter__(self) -> "Instrumentation":
        for hook in self.hooks:
            owner, attr = _resolve(hook.target)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(self.clock, hook, original))
        if self.tracer:
            from repro.obs.trace import Tracer, set_process_tracer

            self._previous_tracer = set_process_tracer(Tracer(name="perfbench"))
        return self

    def drain(self) -> None:
        """Drop the spans the program's tracer recorded so far."""
        if self.tracer:
            from repro.obs.trace import get_tracer

            tracer = get_tracer()
            if tracer is not None:
                tracer.drain()

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self.tracer:
            from repro.obs.trace import set_process_tracer

            set_process_tracer(self._previous_tracer)


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(clock: Clock, passes: int) -> Dict[str, Tuple[float, str]]:
    """Per-pass layer figures from the accumulated *clock*, as
    ``name -> (value, unit)`` in the order ``BENCHMARK.json`` lists them."""
    def get(layer: str) -> LayerStats:
        return clock.layers.get(layer, LayerStats())

    def calls(layer: str) -> Tuple[float, str]:
        return get(layer).calls / passes, "count"

    def self_ms(layer: str) -> Tuple[float, str]:
        return get(layer).self_ns / 1e6 / passes, "ms"

    def count(layer: str, key: str) -> Tuple[float, str]:
        return get(layer).counts.get(key, 0) / passes, "count"

    def ratio(layer: str, key: str, base: Optional[str] = None) -> Tuple[float, str]:
        stats = get(layer)
        denominator = stats.counts.get(base, 0) if base else stats.calls
        return _ratio(stats.counts.get(key, 0), denominator), "ratio"

    component = get("synthesis.realizability.component")
    lookups = component.counts.get("hits", 0) + component.counts.get("misses", 0)
    return {
        "automata.ltlsat.precheck.calls": calls("automata.ltlsat.precheck"),
        "automata.ltlsat.precheck.self_ms": self_ms("automata.ltlsat.precheck"),
        "automata.ltlsat.precheck.decided_ratio": ratio("automata.ltlsat.precheck", "decided"),
        "automata.gpvw.translate.calls": calls("automata.gpvw.translate"),
        "automata.gpvw.translate.self_ms": self_ms("automata.gpvw.translate"),
        "automata.gpvw.translate.cache_hit_ratio": ratio("automata.gpvw.translate", "hits"),
        "automata.emptiness.find_witness.self_ms": self_ms("automata.emptiness.find_witness"),
        "synthesis.invariants.obligations.calls": calls("synthesis.invariants.obligations"),
        "synthesis.invariants.obligations.self_ms": self_ms("synthesis.invariants.obligations"),
        "synthesis.invariants.obligations.decided_ratio": ratio("synthesis.invariants.obligations", "decided"),
        "synthesis.invariants.obligations.cegis_iterations": count("synthesis.invariants.obligations", "cegis_iterations"),
        "sat.cdcl.solve.calls": calls("sat.cdcl.solve"),
        "sat.cdcl.solve.self_ms": self_ms("sat.cdcl.solve"),
        "synthesis.safety_game.solve.calls": calls("synthesis.safety_game.solve"),
        "synthesis.safety_game.solve.self_ms": self_ms("synthesis.safety_game.solve"),
        "synthesis.safety_game.solve.positions": count("synthesis.safety_game.solve", "positions"),
        "synthesis.safety_game.solve.pruned_ratio": ratio("synthesis.safety_game.solve", "pruned", "positions"),
        "synthesis.bounded.solve.calls": calls("synthesis.bounded.solve"),
        "synthesis.bounded.solve.self_ms": self_ms("synthesis.bounded.solve"),
        "synthesis.bounded.solve.sat_conflicts": count("synthesis.bounded.solve", "sat_conflicts"),
        "synthesis.verify.calls": calls("synthesis.verify"),
        "synthesis.verify.self_ms": self_ms("synthesis.verify"),
        "automata.ltlsat.validity.calls": calls("automata.ltlsat.validity"),
        "automata.ltlsat.validity.self_ms": self_ms("automata.ltlsat.validity"),
        "core.pipeline.repair_attempts": count("core.pipeline", "repair_attempts"),
        "synthesis.localization.calls": calls("synthesis.localization"),
        "synthesis.localization.self_ms": self_ms("synthesis.localization"),
        "synthesis.localization.checks": count("synthesis.localization", "checks"),
        "synthesis.realizability.component.calls": calls("synthesis.realizability.component"),
        "synthesis.realizability.component.self_ms": self_ms("synthesis.realizability.component"),
        "synthesis.realizability.component.cache_hit_ratio": (
            _ratio(component.counts.get("hits", 0), lookups), "ratio"
        ),
        "synthesis.modular.self_ms": self_ms("synthesis.modular"),
        "nlp.parse.calls": calls("nlp.parse"),
        "nlp.parse.self_ms": self_ms("nlp.parse"),
        "translate.semantics.calls": calls("translate.semantics"),
        "translate.semantics.self_ms": self_ms("translate.semantics"),
        "translate.timeabs.self_ms": self_ms("translate.timeabs"),
        "translate.partition.self_ms": self_ms("translate.partition"),
        "translate.translator.self_ms": self_ms("translate.translator"),
        "service.server.request.self_ms": self_ms("service.server.request"),
        "service.session.check.calls": calls("service.session.check"),
        "service.session.check.self_ms": self_ms("service.session.check"),
        "service.session.check.reanalysed_ratio": ratio("service.session.check", "reanalysed", "components"),
        "service.reportjson.self_ms": self_ms("service.reportjson"),
        "unattributed_ms": self_ms(Clock.ROOT),
    }
