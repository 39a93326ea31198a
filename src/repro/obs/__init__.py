"""repro.obs — run telemetry, tracing and provenance.

Four small pieces, deliberately dependency-free (stdlib only, nothing
imported from the layers it observes):

- :mod:`repro.obs.metrics` — process-safe :class:`MetricsRegistry`
  (counters, gauges, timer histograms, nested spans) behind module-level
  helpers that no-op when no registry is installed;
- :mod:`repro.obs.manifest` — ``manifest.json`` + ``metrics.json``
  writers/loaders giving every instrumented run a provenance record
  (config digest, seed, cache/jobs settings, package version,
  per-stage timings);
- :mod:`repro.obs.report` — the ``repro-experiments metrics-summary``
  renderer;
- :mod:`repro.obs.progress` — a live progress line for long sweeps.

Switch collection on with ``repro-experiments --metrics``, or
programmatically::

    from repro import obs

    registry = obs.enable()
    ...              # any simulation / experiment work
    snap = registry.snapshot()
    obs.disable()

Instrumented layers: :mod:`repro.sim.hierarchy` /
:mod:`repro.sim.llc` (replay events),
:mod:`repro.sim.replay_cache` (hit/miss/corrupt/bytes),
:mod:`repro.sim.parallel` (per-worker cell timings merged across the
pool boundary), :mod:`repro.experiments` (per-experiment spans) and
:mod:`repro.nvsim.sweep` (model generation).
"""

from repro.obs.metrics import (
    MetricsRegistry,
    TimerStats,
    counter_add,
    disable,
    enable,
    enabled,
    gauge_set,
    get_registry,
    merge_snapshot,
    scoped_registry,
    span,
    timer_record,
)
from repro.obs.manifest import (
    MANIFEST_NAME,
    METRICS_NAME,
    build_manifest,
    config_digest,
    load_manifest,
    load_metrics,
    load_run,
    validate_manifest,
    write_run_files,
)
from repro.obs.progress import ProgressLine
from repro.obs.report import render_summary

__all__ = [
    "MANIFEST_NAME",
    "METRICS_NAME",
    "MetricsRegistry",
    "TimerStats",
    "ProgressLine",
    "build_manifest",
    "config_digest",
    "counter_add",
    "disable",
    "enable",
    "enabled",
    "gauge_set",
    "get_registry",
    "load_manifest",
    "load_metrics",
    "load_run",
    "merge_snapshot",
    "render_summary",
    "scoped_registry",
    "span",
    "timer_record",
    "validate_manifest",
    "write_run_files",
]
