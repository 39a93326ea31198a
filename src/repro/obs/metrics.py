"""Process-safe run metrics: counters, gauges, timer histograms, spans.

One :class:`MetricsRegistry` describes one run (or one worker's share of
a run).  Everything it records is held in plain dicts and lists so a
registry :meth:`~MetricsRegistry.snapshot` is a picklable, JSON-ready
value that crosses process boundaries untouched; the parent folds worker
snapshots back in with :meth:`~MetricsRegistry.merge_snapshot`
(:mod:`repro.sim.parallel` does this for every pool cell).

Instrumentation goes through the module-level helpers —
:func:`counter_add`, :func:`gauge_set`, :func:`timer_record`,
:func:`span` — which no-op against a single ``None`` check while no
registry is installed.  The instrumented call sites sit at *batch*
boundaries (once per replay, per cache probe, per sweep cell), never
inside per-access loops, so the cost with metrics enabled is a few
dictionary updates per replay and the cost with metrics disabled is one
global load per call site (the guard suite in
``tests/obs/test_overhead.py`` keeps it under 2% of a replay).

Merge semantics (the contract the parallel layer relies on):

- counters add;
- gauges last-write-wins (the merged snapshot's value replaces ours);
- timers combine count/total/min/max and add histogram buckets;
- spans concatenate, capped at :attr:`MetricsRegistry.max_spans`
  (drops are counted in the ``obs.spans_dropped`` counter, never
  silent).

Spans nest: ``span("a")`` inside ``span("b")`` records the path
``"b/a"``, and every completed span also feeds the timer histogram under
its plain name so repeated stages aggregate.  When the registry is given
a ``trace_path``, completed spans are additionally appended to that file
as JSON lines (one object per span — name, path, start, elapsed, pid).
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Any, Dict, List, Optional

#: Snapshot schema version (bump on incompatible snapshot changes).
SNAPSHOT_SCHEMA = 1


class TimerStats:
    """Aggregate of one named timer: count/total/min/max + log2-ms histogram.

    The histogram buckets elapsed times by ``ceil(log2(milliseconds))``
    (bucket 0 holds everything up to 1 ms), which is coarse but enough
    to tell "many fast cells" from "one slow cell" in a summary.
    """

    __slots__ = ("count", "total_s", "min_s", "max_s", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0
        self.buckets: Dict[int, int] = {}

    def record(self, elapsed_s: float) -> None:
        """Fold one elapsed time into the aggregate."""
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s
        ms = elapsed_s * 1e3
        bucket = 0 if ms <= 1.0 else int(math.ceil(math.log2(ms)))
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean_s(self) -> float:
        """Mean elapsed seconds (0.0 when empty)."""
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (used by snapshots and ``metrics.json``)."""
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    def merge_dict(self, other: Dict[str, Any]) -> None:
        """Fold a snapshot'd timer into this aggregate."""
        if not other.get("count"):
            return
        self.count += int(other["count"])
        self.total_s += float(other["total_s"])
        self.min_s = min(self.min_s, float(other["min_s"]))
        self.max_s = max(self.max_s, float(other["max_s"]))
        for bucket, n in other.get("buckets", {}).items():
            bucket = int(bucket)
            self.buckets[bucket] = self.buckets.get(bucket, 0) + int(n)


class _Span:
    """A live tracing span (context manager); created by ``registry.span``."""

    __slots__ = ("registry", "name", "path", "start_s", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self.registry = registry
        self.name = name
        self.path = ""
        self.start_s = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        registry = self.registry
        stack = registry._span_stack
        self.path = f"{stack[-1].path}/{self.name}" if stack else self.name
        self._t0 = time.perf_counter()
        self.start_s = self._t0 - registry._epoch_perf
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._t0
        registry = self.registry
        stack = registry._span_stack
        if stack and stack[-1] is self:
            stack.pop()
        registry._complete_span(self, elapsed)
        return False


class _NullSpan:
    """Reusable no-op span for the disabled path (zero allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """Counters, gauges, timers and spans for one run (or worker).

    Parameters
    ----------
    trace_path:
        Optional JSONL file; every completed span (including spans merged
        in from worker snapshots) is appended as one JSON object.
    max_spans:
        Cap on retained span records; beyond it spans still feed their
        timer but the record is dropped and ``obs.spans_dropped`` counts
        the loss.
    """

    def __init__(
        self, trace_path: Optional[str] = None, max_spans: int = 20_000
    ) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.timers: Dict[str, TimerStats] = {}
        self.spans: List[Dict[str, Any]] = []
        self.max_spans = max_spans
        self.trace_path = trace_path
        self.pid = os.getpid()
        self._span_stack: List[_Span] = []
        self._epoch_perf = time.perf_counter()
        self._epoch_unix = time.time()
        self._trace_handle = None

    # -- recording --------------------------------------------------------

    def counter_add(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a counter (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        """Set a gauge to its latest value."""
        self.gauges[name] = value

    def timer_record(self, name: str, elapsed_s: float) -> None:
        """Fold one elapsed time into a timer histogram."""
        stats = self.timers.get(name)
        if stats is None:
            stats = self.timers[name] = TimerStats()
        stats.record(elapsed_s)

    def span(self, name: str) -> _Span:
        """Open a nested tracing span (use as a context manager)."""
        return _Span(self, name)

    def _complete_span(self, span: _Span, elapsed_s: float) -> None:
        self.timer_record(span.name, elapsed_s)
        record = {
            "name": span.name,
            "path": span.path,
            "start_s": round(span.start_s, 6),
            "elapsed_s": round(elapsed_s, 6),
            "pid": self.pid,
        }
        if len(self.spans) < self.max_spans:
            self.spans.append(record)
        else:
            self.counter_add("obs.spans_dropped")
        self._trace_write(record)

    # -- JSONL trace ------------------------------------------------------

    def _trace_write(self, record: Dict[str, Any]) -> None:
        if self.trace_path is None:
            return
        if self._trace_handle is None:
            self._trace_handle = open(self.trace_path, "a", encoding="utf-8")
        self._trace_handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._trace_handle.flush()

    def close(self) -> None:
        """Flush and close the JSONL trace handle, if any."""
        if self._trace_handle is not None:
            self._trace_handle.close()
            self._trace_handle = None

    # -- snapshot / merge -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict, picklable, JSON-ready copy of everything recorded."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "pid": self.pid,
            "epoch_unix": self._epoch_unix,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {name: t.as_dict() for name, t in self.timers.items()},
            "spans": list(self.spans),
        }

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Counters add, gauges take the snapshot's value, timers combine,
        spans concatenate (respecting ``max_spans``) and are re-emitted
        to this registry's JSONL trace so worker spans land in the
        parent's trace file.
        """
        for name, value in snap.get("counters", {}).items():
            self.counter_add(name, value)
        self.gauges.update(snap.get("gauges", {}))
        for name, timer in snap.get("timers", {}).items():
            stats = self.timers.get(name)
            if stats is None:
                stats = self.timers[name] = TimerStats()
            stats.merge_dict(timer)
        for record in snap.get("spans", []):
            if len(self.spans) < self.max_spans:
                self.spans.append(record)
            else:
                self.counter_add("obs.spans_dropped")
            self._trace_write(record)


# -- module-level fast path -------------------------------------------------

_active: Optional[MetricsRegistry] = None


def enabled() -> bool:
    """Whether a registry is currently installed."""
    return _active is not None


def get_registry() -> Optional[MetricsRegistry]:
    """The installed registry, or None when metrics are off."""
    return _active


def enable(
    registry: Optional[MetricsRegistry] = None, trace_path: Optional[str] = None
) -> MetricsRegistry:
    """Install a registry as the process-wide collection target."""
    global _active
    if registry is None:
        registry = MetricsRegistry(trace_path=trace_path)
    _active = registry
    return registry


def disable() -> None:
    """Remove the installed registry (instrumentation reverts to no-ops)."""
    global _active
    if _active is not None:
        _active.close()
    _active = None


class scoped_registry:
    """Context manager installing a fresh registry and restoring the
    previous one on exit — the worker-process pattern: collect into a
    clean registry, snapshot it, ship the snapshot home.

    >>> with scoped_registry() as registry:
    ...     counter_add("demo", 2)
    ...     registry.counters["demo"]
    2
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        global _active
        self._previous = _active
        _active = self.registry
        return self.registry

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _active
        _active = self._previous
        self.registry.close()
        return False


def counter_add(name: str, value: float = 1) -> None:
    """Add to a counter on the installed registry (no-op when disabled)."""
    registry = _active
    if registry is not None:
        registry.counter_add(name, value)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge on the installed registry (no-op when disabled)."""
    registry = _active
    if registry is not None:
        registry.gauge_set(name, value)


def timer_record(name: str, elapsed_s: float) -> None:
    """Record a timing on the installed registry (no-op when disabled)."""
    registry = _active
    if registry is not None:
        registry.timer_record(name, elapsed_s)


def span(name: str):
    """A tracing span on the installed registry (null span when disabled)."""
    registry = _active
    if registry is None:
        return _NULL_SPAN
    return registry.span(name)


def merge_snapshot(snap: Dict[str, Any]) -> None:
    """Merge a worker snapshot into the installed registry (no-op when
    disabled — the snapshot is simply discarded)."""
    registry = _active
    if registry is not None:
        registry.merge_snapshot(snap)
