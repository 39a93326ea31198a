"""Human-readable rendering of saved run metrics.

``repro-experiments metrics-summary RESULTS_DIR`` ends up in
:func:`render_summary`: given a metrics snapshot (and optionally its
manifest) it prints the run's provenance, headline rates (replay-cache
hit rate, LLC demand hit rate), per-stage/experiment spans, per-worker cell
timings, the timer histograms, and the raw counters — everything needed
to see where a sweep's wall-clock went without re-running it.

Kept free of imports from :mod:`repro.experiments` (which imports the
instrumented layers) so the reporting path can never create an import
cycle with the code it observes.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Timer-name prefix the parallel layer uses for per-worker cell timings.
WORKER_TIMER_PREFIX = "parallel.worker."


def _table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Minimal fixed-width table (left-aligned first column, right-aligned
    rest) — local so the obs layer stays import-cycle free."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]

    def line(cells: Sequence[str]) -> str:
        out = [cells[0].ljust(widths[0])]
        out += [cells[i].rjust(widths[i]) for i in range(1, len(cells))]
        return "  ".join(out).rstrip()

    text = [line(list(headers)), line(["-" * w for w in widths])]
    text.extend(line(row) for row in rows)
    return "\n".join(text)


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _fmt_count(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return f"{int(value):,}"


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def headline_rates(counters: Dict[str, float]) -> List[str]:
    """Derived one-line rates worth surfacing above the raw tables."""
    lines: List[str] = []
    hits = counters.get("replay_cache.hits", 0)
    misses = counters.get("replay_cache.misses", 0)
    rate = _ratio(hits, hits + misses)
    if rate is not None:
        lines.append(
            f"replay-cache hit rate: {rate:.1%} "
            f"({_fmt_count(hits)} hits / {_fmt_count(misses)} misses)"
        )
    corrupt = counters.get("replay_cache.corrupt", 0)
    if corrupt:
        lines.append(
            f"replay-cache corrupt entries quarantined + recomputed: "
            f"{_fmt_count(corrupt)}"
        )
    evictions = counters.get("replay_cache.evictions", 0)
    if evictions:
        evicted_mb = counters.get("replay_cache.evicted_bytes", 0) / (1024 * 1024)
        lines.append(
            f"replay-cache LRU evictions: {_fmt_count(evictions)} "
            f"({evicted_mb:.1f} MB freed)"
        )
    swept = counters.get("replay_cache.tmp_swept", 0)
    if swept:
        lines.append(f"replay-cache stale temp files swept: {_fmt_count(swept)}")
    skipped = counters.get("checkpoint.cells_skipped", 0)
    recorded = counters.get("checkpoint.cells_recorded", 0)
    if skipped or recorded:
        lines.append(
            f"checkpoint: {_fmt_count(skipped)} cells skipped (resumed), "
            f"{_fmt_count(recorded)} newly journaled"
        )
    corrupt_records = counters.get("checkpoint.corrupt_records", 0)
    if corrupt_records:
        lines.append(
            f"checkpoint records skipped as corrupt: {_fmt_count(corrupt_records)}"
        )
    faults = []
    for counter, label in (
        ("parallel.retries", "retries"),
        ("parallel.timeouts", "timeouts"),
        ("parallel.worker_failures", "worker failures"),
        ("parallel.pool_respawns", "pool respawns"),
        ("parallel.serial_fallback_cells", "serial-fallback cells"),
    ):
        value = counters.get(counter, 0)
        if value:
            faults.append(f"{_fmt_count(value)} {label}")
    if faults:
        lines.append("fault recovery: " + ", ".join(faults))
    llc_reads = counters.get("sim.llc.read_lookups", 0)
    llc_read_hits = counters.get("sim.llc.read_hits", 0)
    hit_rate = _ratio(llc_read_hits, llc_reads)
    if hit_rate is not None:
        lines.append(
            f"aggregate LLC demand hit rate: {hit_rate:.1%} "
            f"over {_fmt_count(llc_reads)} lookups"
        )
    return lines


def worker_rows(timers: Dict[str, Dict[str, Any]]) -> List[List[str]]:
    """Per-worker timing rows from ``parallel.worker.<pid>.cell`` timers."""
    rows = []
    for name in sorted(timers):
        if not name.startswith(WORKER_TIMER_PREFIX):
            continue
        worker = name[len(WORKER_TIMER_PREFIX):].rsplit(".", 1)[0]
        t = timers[name]
        count = t.get("count", 0)
        total = t.get("total_s", 0.0)
        rows.append(
            [
                worker,
                _fmt_count(count),
                _fmt_s(total),
                _fmt_s(total / count if count else 0.0),
                _fmt_s(t.get("max_s", 0.0)),
            ]
        )
    return rows


def span_rows(
    spans: List[Dict[str, Any]], max_depth: int = 2, limit: int = 60
) -> List[List[str]]:
    """Span records as indented rows in start order (grouped by process),
    depth-capped."""
    rows = []
    shown = 0
    ordered = sorted(
        spans, key=lambda r: (r.get("pid", 0), r.get("start_s", 0.0))
    )
    for record in ordered:
        depth = record.get("path", "").count("/")
        if depth >= max_depth:
            continue
        if shown >= limit:
            rows.append([f"... {len(spans) - shown} more spans", "", ""])
            break
        indent = "  " * depth
        rows.append(
            [
                f"{indent}{record.get('name', '?')}",
                _fmt_s(record.get("elapsed_s", 0.0)),
                str(record.get("pid", "")),
            ]
        )
        shown += 1
    return rows


def render_summary(
    metrics: Dict[str, Any], manifest: Optional[Dict[str, Any]] = None
) -> str:
    """Render a metrics snapshot (+ optional manifest) as readable text."""
    sections: List[str] = []

    if manifest is not None:
        settings = manifest.get("settings", {})
        created = manifest.get("created_unix")
        when = (
            time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(created))
            if created
            else "?"
        )
        lines = [
            f"run: repro {manifest.get('version', '?')} on "
            f"python {manifest.get('python', '?')}  ({when})",
            f"config digest: {manifest.get('config_digest', '?')}",
            "settings: "
            + ", ".join(f"{k}={settings[k]}" for k in sorted(settings)),
        ]
        if "peak_rss_mb" in manifest:
            worker = manifest.get("worker_peak_rss_mb")
            lines.append(
                f"peak RSS: {manifest['peak_rss_mb']:.1f} MB"
                + (f" (largest worker {worker:.1f} MB)" if worker else "")
            )
        resume = manifest.get("resume")
        if resume is not None:
            source = resume.get("resumed_from")
            lines.append(
                ("resumed from " + str(source) if source else "checkpointed run")
                + f": {resume.get('cells_skipped', 0)} cells skipped, "
                f"{resume.get('cells_recorded', 0)} newly journaled"
            )
        stages = manifest.get("stages", [])
        if stages:
            lines.append("stages:")
            lines.append(
                _table(
                    ["stage", "count", "total", "max"],
                    [
                        [s["name"], str(s["count"]), _fmt_s(s["total_s"]),
                         _fmt_s(s["max_s"])]
                        for s in stages
                    ],
                )
            )
        sections.append("\n".join(lines))

    counters = metrics.get("counters", {})
    rates = headline_rates(counters)
    if rates:
        sections.append("\n".join(rates))

    spans = metrics.get("spans", [])
    if spans:
        sections.append(
            "spans (outermost levels):\n"
            + _table(["span", "elapsed", "pid"], span_rows(spans))
        )

    timers = metrics.get("timers", {})
    workers = worker_rows(timers)
    if workers:
        sections.append(
            "per-worker cell timings:\n"
            + _table(["worker", "cells", "total", "mean", "max"], workers)
        )

    if timers:
        rows = [
            [
                name,
                _fmt_count(t.get("count", 0)),
                _fmt_s(t.get("total_s", 0.0)),
                _fmt_s(
                    t.get("total_s", 0.0) / t["count"] if t.get("count") else 0.0
                ),
                _fmt_s(t.get("min_s", 0.0)),
                _fmt_s(t.get("max_s", 0.0)),
            ]
            for name, t in sorted(timers.items())
        ]
        sections.append(
            "timers:\n"
            + _table(["timer", "count", "total", "mean", "min", "max"], rows)
        )

    if counters:
        rows = [[name, _fmt_count(value)] for name, value in sorted(counters.items())]
        sections.append("counters:\n" + _table(["counter", "value"], rows))

    if gauges := metrics.get("gauges", {}):
        rows = [[name, _fmt_count(value)] for name, value in sorted(gauges.items())]
        sections.append("gauges:\n" + _table(["gauge", "value"], rows))

    if not sections:
        return "no metrics recorded\n"
    return ("\n\n".join(sections)) + "\n"
