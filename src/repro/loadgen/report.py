"""Folding load-run records into percentile/throughput reports.

One report shape serves three consumers: the ``repro-cli loadgen``
terminal rendering, its ``--json`` output (uploaded as a CI
artifact), and the committed ``BENCH_0008.json`` benchmark record,
which embeds it under a schema envelope and host fingerprint.

Percentiles are *exact* (sorted-sample linear interpolation, the same
rule ``statistics.quantiles`` uses with ``method='inclusive'``) — no
histogram buckets, the record counts are small enough to keep every
sample.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.loadgen.launcher import (
    REQUEST_STATES,
    FleetRun,
    RateRun,
    RequestRecord,
)

#: Latency percentiles every summary reports.
PERCENTILES = (50.0, 90.0, 99.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Exact percentile by linear interpolation (p in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return float(ordered[low] * (1 - fraction) + ordered[high] * fraction)


def summarize_rate(run: RateRun) -> Dict[str, Any]:
    """One (rate)'s summary: throughput, latency, failure, dedup."""
    records = run.records
    by_state = {state: 0 for state in REQUEST_STATES}
    for record in records:
        by_state[record.state] += 1
    done = [r for r in records if r.state == "done"]
    latencies = [r.latency_s for r in done]
    submits = [r.submit_s for r in records if r.job_id is not None]
    offered = len(records)
    failures = offered - len(done) - by_state["rejected"]
    return {
        "qps_target": run.qps,
        "offered": offered,
        "states": by_state,
        "throughput_rps": (
            len(done) / run.wall_s if run.wall_s > 0 else 0.0
        ),
        "wall_s": run.wall_s,
        "latency_s": {
            f"p{p:g}": percentile(latencies, p) for p in PERCENTILES
        },
        "submit_s": {
            f"p{p:g}": percentile(submits, p) for p in PERCENTILES
        },
        "failure_rate": failures / offered if offered else 0.0,
        "rejected_rate": by_state["rejected"] / offered if offered else 0.0,
        "dedup": _dedup_summary(records),
        "late_p99_s": percentile([r.late_s for r in records], 99.0),
    }


def _dedup_summary(records: List[RequestRecord]) -> Dict[str, Any]:
    """Dedup as the client saw it.

    ``hit_rate`` is deduped-over-offered: injected duplicates are not
    the only colliders (a mix whose ``seeds`` pool is smaller than the
    fresh-pick count repeats specs too), so the honest denominator is
    every submission.
    """
    duplicates_offered = sum(1 for r in records if r.duplicate)
    deduped = sum(1 for r in records if r.deduped)
    return {
        "duplicates_offered": duplicates_offered,
        "client_observed_deduped": deduped,
        "hit_rate": deduped / len(records) if records else 0.0,
    }


def summarize_fleet(runs: Sequence[FleetRun],
                    scenario_dict: Dict[str, Any]) -> Dict[str, Any]:
    """The full sweep report (what ``BENCH_0008.json`` embeds).

    ``scaling`` gives, per rate, throughput by shard count and the
    speedup relative to one shard (when a one-shard point exists) — the
    near-linear-scaling claim is read straight off this block.
    """
    points = []
    for run in runs:
        points.append({
            "shards": run.shard_count,
            "rates": [summarize_rate(rate) for rate in run.rates],
            "fleet_counters": run.counters,
        })
    scaling: Dict[str, Any] = {}
    base = next((p for p in points if p["shards"] == 1), None)
    for point in points:
        for rate in point["rates"]:
            key = f"{rate['qps_target']:g}"
            entry = scaling.setdefault(key, {})
            entry[str(point["shards"])] = round(rate["throughput_rps"], 3)
    if base is not None:
        speedup: Dict[str, Any] = {}
        for rate_base in base["rates"]:
            key = f"{rate_base['qps_target']:g}"
            base_rps = rate_base["throughput_rps"]
            if base_rps <= 0:
                continue
            speedup[key] = {
                shards: round(rps / base_rps, 3)
                for shards, rps in scaling.get(key, {}).items()
            }
        scaling = {"throughput_rps": scaling, "speedup_vs_1_shard": speedup}
    else:
        scaling = {"throughput_rps": scaling}
    return {
        "scenario": scenario_dict,
        "points": points,
        "scaling": scaling,
    }


def render_rate(summary: Dict[str, Any]) -> str:
    """One rate's terminal line."""
    states = summary["states"]
    return (
        f"  {summary['qps_target']:>7g} qps  "
        f"{summary['throughput_rps']:>8.2f} rps  "
        f"p50 {summary['latency_s']['p50'] * 1000:>7.1f} ms  "
        f"p99 {summary['latency_s']['p99'] * 1000:>7.1f} ms  "
        f"done {states['done']}/{summary['offered']}"
        f"  rej {states['rejected']}"
        f"  fail {states['failed'] + states['error'] + states['timeout']}"
        f"  dedup {summary['dedup']['client_observed_deduped']}"
    )


def render_fleet(report: Dict[str, Any]) -> str:
    """Terminal rendering of a full sweep report."""
    lines = [f"scenario {report['scenario']['name']}"
             f" ({report['scenario']['arrival']} arrivals,"
             f" duplicate_rate={report['scenario']['duplicate_rate']:g})"]
    for point in report["points"]:
        lines.append(f"shards={point['shards']}")
        for rate in point["rates"]:
            lines.append(render_rate(rate))
        counters = point.get("fleet_counters", {})
        executed = counters.get("serve.jobs.executed")
        satisfied = counters.get("serve.jobs.store_satisfied", 0)
        deduped = counters.get("serve.jobs.deduped", 0)
        if executed is not None:
            lines.append(
                f"  fleet: executed={executed:g} "
                f"store_satisfied={satisfied:g} deduped={deduped:g}"
            )
    speedup = report.get("scaling", {}).get("speedup_vs_1_shard")
    if speedup:
        for qps, by_shards in sorted(speedup.items(), key=lambda i: float(i[0])):
            pairs = ", ".join(
                f"{shards}x: {factor:g}"
                for shards, factor in sorted(
                    by_shards.items(), key=lambda i: int(i[0])
                )
            )
            lines.append(f"speedup @ {qps} qps vs 1 shard: {pairs}")
    return "\n".join(lines) + "\n"
