"""Nested-span tracing across the whole pipeline.

One request through SpecCC crosses many layers — parsing, Algorithm 1,
time abstraction, partitioning, per-component realizability, SAT solves,
pool dispatch, supervised retries — and until now the only answer to
"where did this slow ``check`` spend its 400 ms?" was a single
wall-clock total.  A :class:`Tracer` records a tree of **spans**: each
``with span("translate.semantics", sentences=40):`` block becomes one
timed node with arbitrary key/value attributes, nested under whatever
span was active on the same thread when it opened.

Design constraints, in order:

* **Tracing off is near-free.**  The module-level :func:`span` helper
  resolves the active tracer with one context-variable read plus one
  global read; with no tracer installed it returns a shared no-op
  handle.  Instrumentation therefore stays compiled into every hot path
  permanently — there is no "instrumented build".
* **Tracing on never changes results.**  Spans only *read* the pipeline
  (timings, counters, verdict strings); report bytes are identical with
  tracing on or off — asserted in ``tests/test_obs.py``.
* **Span batches are picklable.**  Finished spans are plain dicts of
  JSON-safe scalars, so pool workers ship their per-task spans back
  through the existing result pipe (the same pattern as the
  ``cache_snapshot()`` hit/miss deltas) and the parent *stitches* them
  under the dispatching request's span via :meth:`Tracer.adopt` — one
  coherent cross-process trace.

Two activation scopes mirror how the service tiers work:

* a **process-wide tracer** (:func:`set_process_tracer`) — what ``python
  -m repro check --trace-out trace.json`` installs; every thread's spans
  land in it (batch threads, pool dispatchers, the degraded inline
  path);
* a **context tracer** (:func:`activate` / :func:`activated`) — a
  per-request tracer the serve loops install around one request (keyed
  by the protocol's ``rid``/``session``), shipped back to the client on
  the response.  The context variable overrides the process tracer, so
  concurrent requests keep separate traces.

Exports are Chrome trace-event JSON (``B``/``E`` pairs, loadable in
Perfetto / ``chrome://tracing``); spans exceeding a configurable
threshold are additionally logged through :mod:`logging` with their full
attribute payload (the *slow-op log*).
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, IO, Iterator, List, Optional, Sequence, Union

logger = logging.getLogger("repro.obs.trace")

#: A finished span: plain JSON-safe data (picklable, ships across the
#: worker-pool pipe unchanged).  ``ts``/``dur`` are microseconds relative
#: to the owning tracer's epoch; ``parent`` is the id of the enclosing
#: span or None for roots.
SpanRecord = Dict[str, Any]


class _NullSpan:
    """The shared do-nothing handle returned while tracing is off."""

    __slots__ = ()
    id: Optional[int] = None
    ts = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _ThreadStack(list):
    """One thread's open spans, its name, and the ``(name, seconds)`` of
    spans finished since its outermost span last closed (``unmetered``)."""

    __slots__ = ("tid", "unmetered")


class _Span:
    """One open span; finished spans live on as plain dict records."""

    __slots__ = ("tracer", "name", "args", "id", "parent", "ts", "_start_ns", "_stack")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        args: Dict[str, Any],
        span_id: int,
        stack: _ThreadStack,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args
        self.id = span_id
        self.parent = stack[-1].id if stack else None
        # The opening thread's stack, so closing needs no thread-local lookup.
        self._stack = stack
        self._start_ns = time.perf_counter_ns()
        self.ts = (self._start_ns - tracer._epoch_ns) / 1000.0

    def set(self, **attrs: object) -> "_Span":
        """Attach attributes to the open span (counters, verdicts, ...)."""
        self.args.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self.tracer._finish(self, time.perf_counter_ns())
        return False


class Tracer:
    """Collects a tree of spans; thread safe, monotonic-clock timed.

    Each thread keeps its own span stack (nesting is a per-thread
    notion), all finished records land in one shared list.  *slow_ms*
    enables the slow-op log: any span outliving the threshold is logged
    at ``WARNING`` with its attributes.  *record_metrics* feeds every
    finished span's duration into the process
    :class:`~repro.obs.metrics.MetricsRegistry` as a latency histogram
    named ``span.<name>``, in one batch per outermost span.
    """

    def __init__(
        self,
        name: str = "trace",
        slow_ms: Optional[float] = None,
        record_metrics: bool = True,
    ) -> None:
        self.name = name
        self.slow_ms = slow_ms
        self.record_metrics = record_metrics
        self._epoch_ns = time.perf_counter_ns()
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        # next() on a count is GIL-atomic: unique ids without a lock on
        # the hot path (bench_core's tracing_overhead row polices this).
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -------------------------------------------------------------- spans
    def _stack(self) -> _ThreadStack:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            stack = local.stack = _ThreadStack()
            stack.tid = threading.current_thread().name
            stack.unmetered = []
            return stack

    def span(self, name: str, **attrs: object) -> _Span:
        """Open a nested span; use as a context manager."""
        return self._open(name, attrs)

    def _open(self, name: str, attrs: Dict[str, Any]) -> _Span:
        # span() hands its own **attrs over here without packing them again.
        stack = self._stack()
        handle = _Span(self, name, attrs, next(self._ids), stack)
        stack.append(handle)
        return handle

    def current(self) -> Optional[_Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _finish(self, handle: _Span, end_ns: int) -> None:
        stack = handle._stack
        if stack and stack[-1] is handle:
            stack.pop()
        else:  # out-of-order exit (generator teardown): drop to the handle
            while stack:
                if stack.pop() is handle:
                    break
        dur_us = (end_ns - handle._start_ns) / 1000.0
        record: SpanRecord = {
            "name": handle.name,
            "ts": handle.ts,
            "dur": dur_us,
            "id": handle.id,
            "parent": handle.parent,
            "tid": stack.tid,
            "args": handle.args,
        }
        # list.append is atomic under the GIL; readers copy under _lock.
        self._records.append(record)
        if self.record_metrics:
            unmetered = stack.unmetered
            unmetered.append((handle.name, dur_us / 1e6))
            if not stack:  # the thread's outermost span just closed
                from .metrics import registry

                registry().observe_spans(unmetered)
                unmetered.clear()
        if self.slow_ms is not None and dur_us / 1000.0 >= self.slow_ms:
            logger.warning(
                "slow span %s: %.1f ms (threshold %.1f ms) %s",
                handle.name,
                dur_us / 1000.0,
                self.slow_ms,
                handle.args,
            )

    # ------------------------------------------------------------ batches
    def mark(self) -> int:
        """A position in the record stream (see :meth:`records_since`)."""
        with self._lock:
            return len(self._records)

    def records(self) -> List[SpanRecord]:
        """A copy of every finished span so far."""
        with self._lock:
            return list(self._records)

    def records_since(self, mark: int) -> List[SpanRecord]:
        """Finished spans appended after *mark* (approximate under
        concurrency: other threads' spans interleave into the window)."""
        with self._lock:
            return list(self._records[mark:])

    def drain(self) -> List[SpanRecord]:
        """Remove and return every finished span (per-task shipping)."""
        with self._lock:
            records, self._records = self._records, []
            return records

    def adopt(
        self,
        batch: Sequence[SpanRecord],
        parent: Union[_Span, int, None] = None,
        tid: Optional[str] = None,
        offset_us: float = 0.0,
    ) -> List[SpanRecord]:
        """Stitch a shipped span *batch* (another tracer's records, e.g. a
        pool worker's) into this trace.

        Span ids are re-allocated from this tracer's sequence, parent
        links inside the batch are remapped, roots are re-parented under
        *parent* (a span handle or id), timestamps are shifted by
        *offset_us* (conventionally the adopting span's own ``ts``, so
        the worker's task-relative clock lands inside the dispatch
        window) and *tid* overrides the thread label (one track per
        shard in the exported trace).
        """
        if not batch:
            return []
        parent_id = parent.id if isinstance(parent, _Span) else parent
        with self._lock:
            mapping = {record["id"]: next(self._ids) for record in batch}
            adopted = []
            for record in batch:
                stitched = dict(record)
                stitched["id"] = mapping[record["id"]]
                stitched["parent"] = mapping.get(record.get("parent"), parent_id)
                stitched["ts"] = float(record["ts"]) + offset_us
                if tid is not None:
                    stitched["tid"] = tid
                self._records.append(stitched)
                adopted.append(stitched)
            return adopted

    # ------------------------------------------------------------- export
    def export_chrome(self, target: Union[str, "os.PathLike[str]", IO[str]]) -> int:
        """Write the trace as Chrome trace-event JSON; returns the number
        of events written.  Load the file in Perfetto (ui.perfetto.dev)
        or ``chrome://tracing``."""
        return write_chrome_trace(self.records(), target)


def chrome_events(
    records: Sequence[SpanRecord], pid: Optional[int] = None
) -> List[dict]:
    """Convert span records to Chrome trace-event ``B``/``E`` pairs.

    The tree is emitted by a depth-first walk (children in timestamp
    order), which guarantees *balanced* begin/end pairs per thread track
    regardless of float-timestamp ties; per-track timestamps are clamped
    monotone non-decreasing.  ``benchmarks/trace_schema.py`` validates
    exactly these properties.
    """
    pid = pid if pid is not None else os.getpid()
    by_id = {record["id"]: record for record in records}
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for record in records:
        parent = record.get("parent")
        if parent is not None and parent not in by_id:
            parent = None  # orphan (adopted batch with a lost root)
        children.setdefault(parent, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda record: (record["ts"], record["id"]))

    events: List[dict] = []
    last_ts: Dict[str, float] = {}

    def clamp(tid: str, ts: float) -> float:
        floor = last_ts.get(tid, 0.0)
        ts = ts if ts >= floor else floor
        last_ts[tid] = ts
        return ts

    def walk(record: SpanRecord) -> None:
        tid = str(record.get("tid", "main"))
        begin = clamp(tid, float(record["ts"]))
        events.append(
            {
                "name": record["name"],
                "cat": "repro",
                "ph": "B",
                "ts": begin,
                "pid": pid,
                "tid": tid,
                "args": record.get("args", {}),
            }
        )
        for child in children.get(record["id"], ()):
            walk(child)
        end = clamp(tid, float(record["ts"]) + float(record["dur"]))
        events.append(
            {"name": record["name"], "cat": "repro", "ph": "E",
             "ts": end, "pid": pid, "tid": tid}
        )

    for root in children.get(None, ()):
        walk(root)
    return events


def write_chrome_trace(
    records: Sequence[SpanRecord],
    target: Union[str, "os.PathLike[str]", IO[str]],
) -> int:
    """Write raw span *records* as a Chrome trace file (see above).

    Uses the self-describing *JSON Object Format* — ``{"traceEvents":
    [...]}`` — which both Perfetto and ``chrome://tracing`` load, and
    which ``benchmarks/trace_schema.py`` validates.
    """
    events = chrome_events(records)
    payload = json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}, sort_keys=True
    )
    if hasattr(target, "write"):
        target.write(payload)  # type: ignore[union-attr]
    else:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(payload)
    return len(events)


# ------------------------------------------------------------- activation
_process_tracer: Optional[Tracer] = None
_context_tracer: "ContextVar[Optional[Tracer]]" = ContextVar(
    "repro_obs_tracer", default=None
)


def set_process_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or with None clear) the process-wide fallback tracer;
    returns the previous one.  Every thread without a context tracer
    records here — which is what lets pool dispatcher threads, batch
    workers and the degraded inline path contribute to one CLI trace."""
    global _process_tracer
    previous = _process_tracer
    _process_tracer = tracer
    return previous


def activate(tracer: Optional[Tracer]):
    """Make *tracer* current for this context; returns a reset token."""
    return _context_tracer.set(tracer)


def deactivate(token) -> None:
    _context_tracer.reset(token)


@contextmanager
def activated(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """``with activated(tracer):`` — scope a per-request tracer."""
    token = _context_tracer.set(tracer)
    try:
        yield tracer
    finally:
        _context_tracer.reset(token)


def get_tracer() -> Optional[Tracer]:
    """The active tracer: context override first, process-wide second."""
    tracer = _context_tracer.get()
    return tracer if tracer is not None else _process_tracer


def tracing_active() -> bool:
    """True when some tracer would record a span opened right now."""
    return _context_tracer.get() is not None or _process_tracer is not None


def span(name: str, **attrs: object) -> Union[_Span, _NullSpan]:
    """Open a span on the active tracer — the instrumentation entry point.

    With no tracer installed this returns the shared no-op handle: one
    context-variable read, one global read, no allocation beyond the
    call itself.  The returned handle supports ``with`` and ``.set()``
    either way, so call sites never branch on tracing state.
    """
    tracer = _context_tracer.get()
    if tracer is None:
        tracer = _process_tracer
        if tracer is None:
            return NULL_SPAN
    return tracer._open(name, attrs)


def annotate(**attrs: object) -> None:
    """Attach attributes to the innermost open span, if tracing is on."""
    tracer = _context_tracer.get()
    if tracer is None:
        tracer = _process_tracer
        if tracer is None:
            return
    current = tracer.current()
    if current is not None:
        current.set(**attrs)
