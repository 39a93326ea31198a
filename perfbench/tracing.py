"""Per-layer tracing from outside the program.

:data:`LAYERS` names each layer of the system, the public entry points
that enter it, the work it counts, and the end-to-end metric and
workload it should move.  :class:`Tracer` wraps those entry points for
a traced pass: every module attribute bound to an entry point is
replaced by a wrapper that records a span (layer, start, end, parent,
root) in memory and adds the layer's work counts.

Self time is computed per root span (one unit of work): each instant of
the root is charged to the deepest span open at that instant, so a
layer's self time is its span time minus the time its child spans
cover, and the root's own share is ``untraced``.  Spans opened on a
thread with no open span (a serve worker) take the driver's innermost
open span as parent.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

UNTRACED = "untraced"


@dataclass(frozen=True)
class Layer:
    """One layer: its entry points, work counts and target metric."""

    name: str
    #: ``module:function`` or ``module:Class.method`` entry points.
    entries: Tuple[str, ...]
    #: Work counts beside ``calls``, in output order.
    counts: Tuple[str, ...]
    #: ``(args, result) -> {count: increment}`` for one call.
    count: Optional[Callable] = None
    #: (end-to-end metric, workload) pairs this layer should move.
    moves: Tuple[Tuple[str, str], ...] = ()
    #: Workload on which the layer must record calls.
    home: str = "sweep"


def _get(args, result):
    return {"gets": 1, "hits": result is not None}


def _cache_put(args, result):
    # args: (cache, key, value); the entry's size on disk is the bytes written.
    cache, key = args[0], args[1]
    return {"puts": 1, "bytes_written": cache._path(key).stat().st_size}


def _store_put(args, result):
    return {"puts": 1, "bytes_written": len(args[2])}


#: Entry-point-specific count hooks (keyed by entry) for layers whose
#: entries count different things.
_ENTRY_COUNTS: Dict[str, Callable] = {
    "repro.sim.replay_cache:ReplayCache.get": _get,
    "repro.sim.replay_cache:ReplayCache.put": _cache_put,
    "repro.serve.store:FileResultStore.get": _get,
    "repro.serve.store:FileResultStore.put": _store_put,
}

LAYERS: Tuple[Layer, ...] = (
    Layer("sim.llc", ("repro.sim.llc:simulate_llc",),
          ("accesses", "read_misses"),
          lambda a, r: {"accesses": len(a[0]), "read_misses": r.read_misses},
          (("wall_s", "sweep"),)),
    Layer("sim.hierarchy", ("repro.sim.hierarchy:filter_private",),
          ("accesses_in", "accesses_out"),
          lambda a, r: {"accesses_in": len(a[0]), "accesses_out": len(r.stream)},
          (("wall_s", "sweep"),)),
    Layer("techniques.replay",
          ("repro.techniques.replay:replay_with_technique",
           "repro.techniques.hybrid:evaluate_hybrid"),
          ("accesses",), lambda a, r: {"accesses": len(a[0])},
          (("wall_s", "techniques"),), "techniques"),
    Layer("workloads.sizes", ("repro.workloads.generators:line_compressed_sizes",),
          ("lines",), lambda a, r: {"lines": len(a[0])},
          (("wall_s", "techniques"),), "techniques"),
    Layer("endurance.wear", ("repro.endurance.wear:replay_with_wear",),
          ("accesses",), lambda a, r: {"accesses": len(a[0])},
          (("wall_s", "techniques"),), "techniques"),
    Layer("workloads.gen", ("repro.workloads.generators:generate_from_profile",),
          ("accesses",), lambda a, r: {"accesses": len(r)},
          (("wall_s", "sweep"),)),
    Layer("nvsim.pricing", ("repro.nvsim.pricing:price_counts",), (),
          moves=(("wall_s", "sweep"),)),
    Layer("prism", ("repro.prism.profile:extract_features",),
          ("accesses",), lambda a, r: {"accesses": len(a[0])},
          (("wall_s", "sweep"),)),
    Layer("correlate",
          ("repro.correlate.framework:run_framework",
           "repro.correlate.linear:pearson",
           "repro.correlate.linear:correlation_matrix"), (),
          moves=(("wall_s", "sweep"),)),
    Layer("validate.guard",
          ("repro.validate.guard:guard_counts",
           "repro.validate.guard:guard_result"), (),
          moves=(("wall_s", "sweep"),)),
    Layer("experiments.render",
          tuple(f"repro.experiments.{name}:render" for name in (
              "table2", "table3", "table5", "table6", "figure1", "figure2",
              "figure4", "coresweep", "sensitivity", "lifetime",
              "techniques_study", "compression")),
          ("bytes",), lambda a, r: {"bytes": len(r)},
          (("wall_s", "sweep"),)),
    Layer("sim.replay_cache",
          ("repro.sim.replay_cache:ReplayCache.get",
           "repro.sim.replay_cache:ReplayCache.put"),
          ("gets", "hits", "puts", "bytes_written"), None,
          (("wall_s", "sweep"), ("wall_s", "techniques"), ("wall_s", "serve"))),
    Layer("serve.store",
          ("repro.serve.store:FileResultStore.get",
           "repro.serve.store:FileResultStore.put"),
          ("gets", "hits", "puts", "bytes_written"), None,
          (("wall_s", "serve"),), "serve"),
    Layer("serve.jobs", ("repro.serve.jobs:execute_spec",), (),
          moves=(("wall_s", "serve"),), home="serve"),
)

#: Layers measured by probes rather than spans, with their metrics,
#: target metric and home workload (see ``run.py``).
PROBED_LAYERS: Tuple[Layer, ...] = (
    Layer("serve.router", (), ("calls", "proxy_ms", "routed_ms", "direct_ms"),
          moves=(("wall_s", "serve"),), home="serve"),
    Layer("serve.queue", (), ("calls", "wait_ms", "deduped"),
          moves=(("wall_s", "serve"),), home="serve"),
    Layer("serve.client", (), ("hit_p50_ms", "hit_p90_ms", "miss_p50_ms"),
          moves=(("wall_s", "serve"),), home="serve"),
    Layer("setup.import", (), ("self_s",), moves=(("setup_s", "sweep"),)),
    Layer("setup.fleet", (), ("self_s",), moves=(("setup_s", "serve"),),
          home="serve"),
)


def _innermost(driver: list) -> Optional[list]:
    """The driver's innermost open span; safe against a concurrent close."""
    try:
        return driver[-1]
    except IndexError:
        return None


def _resolve(entry: str):
    """``(owner, attribute, function)`` for one entry point."""
    module_name, _, qualname = entry.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Records spans of wrapped entry points; see the module docstring."""

    def __init__(self) -> None:
        #: Spans as ``[layer, start, end, parent, root, request]`` lists:
        #: ``root`` labels the unit (pass and experiment or block),
        #: ``request`` the innermost driver span (a served request, else
        #: the unit).  ``layer`` is None for the driver's own spans.
        self.spans: List[list] = []
        self.counts: Dict[str, Counter] = defaultdict(Counter)
        self._local = threading.local()
        self._driver: List[list] = []
        self._patches: List[tuple] = []
        self._lock = threading.Lock()

    # -- driver spans -----------------------------------------------------

    def open(self, label: str) -> list:
        """Open a root (no driver span open) or request span."""
        parent = self._driver[-1] if self._driver else None
        span = [None, time.perf_counter(), None, parent,
                parent[4] if parent else label, label]
        self.spans.append(span)
        self._driver.append(span)
        self._stack().append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._driver.remove(span)
        self._stack().remove(span)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: Layer, entry: str, function):
        count = _ENTRY_COUNTS.get(entry, layer.count)
        name = layer.name
        counts = self.counts[name]
        spans = self.spans
        lock = self._lock
        stack_of = self._stack
        driver = self._driver

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else _innermost(driver)
            if parent is None:  # outside any unit: not part of a pass
                return function(*args, **kwargs)
            span = [name, time.perf_counter(), None, parent, parent[4], parent[5]]
            spans.append(span)
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            with lock:
                counts["calls"] += 1
                if count is not None:
                    counts.update(count(args, result))
            return result

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        """Replace every ``repro`` module attribute bound to an entry point."""
        for layer in LAYERS:
            for entry in layer.entries:
                owner, attr, function = _resolve(entry)
                wrapper = self._wrap(layer, entry, function)
                targets = [(owner, attr)]
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is function and (module, name) != (owner, attr):
                            targets.append((module, name))
                for target, name in targets:
                    self._patches.append((target, name, function))
                    setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, function in reversed(self._patches):
            setattr(target, name, function)
        self._patches = []

    def mark(self) -> Tuple[int, Dict[str, Counter]]:
        """The span index and a copy of the counts, at a pass boundary."""
        return len(self.spans), {k: Counter(v) for k, v in self.counts.items()}

    @staticmethod
    def counts_between(start, end) -> Dict[str, Counter]:
        """Counts added between two :meth:`mark` results."""
        return {name: counts - start[1].get(name, Counter())
                for name, counts in end[1].items()}

    def write(self, path) -> None:
        """Write every span as one JSON list per line:
        ``[id, layer, start, end, parent_id, root, request]``."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for index, (layer, start, end, parent, root, request) in enumerate(self.spans):
                parent_id = ids[id(parent)] if parent is not None else None
                handle.write(json.dumps(
                    [index, layer or "driver", start, end, parent_id, root, request]) + "\n")


def self_times(spans: List[list], root: list) -> Dict[str, float]:
    """Host seconds of ``root``'s interval charged to each layer.

    ``spans`` holds ``root`` and its descendants (in start order, as
    recorded).  Every instant goes to the deepest open span, the
    latest-started among equals; time charged to driver spans is
    ``untraced``.  The values sum to the root's duration.
    """
    start, end = root[1], root[2]
    depth = {id(root): 0}
    events = [(start, 1, root), (end, 0, root)]
    for span in spans:
        if span is not root and span[4] == root[4] and id(span[3]) in depth:
            depth[id(span)] = depth[id(span[3])] + 1
            finish = end if span[2] is None else min(span[2], end)
            events.append((max(span[1], start), 1, span))
            events.append((finish, 0, span))
    events.sort(key=lambda event: (event[0], event[1]))
    totals: Dict[str, float] = defaultdict(float)
    active: Dict[int, tuple] = {}
    now = start
    for moment, opening, span in events:
        if active and moment > now:
            top = active[max(active, key=active.__getitem__)]
            totals[top[2]] += moment - now
            now = moment
        if opening:
            active[id(span)] = (depth[id(span)], span[1], span[0] or UNTRACED)
        else:
            active.pop(id(span), None)
    return dict(totals)
