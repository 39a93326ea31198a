#!/usr/bin/env python
"""Record engine benchmark snapshots as ``BENCH_<PR>.json``.

Runs the engine-sensitive microbenchmarks (the same shapes as
``benchmarks/test_bench_components.py``) under both replay engines,
asserts the engines produce bit-identical results, and writes one JSON
snapshot — wall-clock per (benchmark, engine), speedups vs the
reference engine, and a host fingerprint so numbers from different
machines are never compared naively.

Usage::

    PYTHONPATH=src python tools/bench_record.py --out BENCH_0006.json
    PYTHONPATH=src python tools/bench_record.py --reps 7 --pretty

``--serve`` switches the recorder to the serve-fleet mode behind
``BENCH_0008.json``: instead of engine microbenchmarks it drives
declarative load scenarios (:mod:`repro.loadgen`) against real
subprocess fleets at each ``--shard-counts`` point and records the
percentile/throughput/dedup report per scenario::

    PYTHONPATH=src python tools/bench_record.py --serve \
        --scenario scaling --scenario compute \
        --shard-counts 1,2,4 --out BENCH_0008.json

The snapshot is meant to be committed: one file per PR that changes
performance-relevant code, forming a tracked perf trajectory (see
ROADMAP.md).  Timings are best-of-``--reps`` to shed scheduler noise;
speedup ratios are far more stable across hosts than absolute times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Tuple

# Keep the replay cache out of the way: benchmarks must measure the
# engines, not cache hits.
os.environ.setdefault("REPRO_REPLAY_CACHE", "0")

import numpy as np

#: Snapshot schema version.
BENCH_SCHEMA = 1

#: Engines benchmarked, reference first (the speedup denominator).
BENCH_ENGINES = ("reference", "vector")


def host_fingerprint() -> dict:
    """Enough host identity to interpret the numbers later."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _best_of(fn: Callable[[], object], reps: int) -> Tuple[float, object]:
    """Best wall-clock over ``reps`` runs, plus the (last) result."""
    best = float("inf")
    out = None
    for _ in range(reps):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def build_benchmarks() -> List[Tuple[str, Callable[[str], object]]]:
    """The engine-sensitive benchmark closures, input built once each.

    Every closure takes the engine name and returns the replay result,
    so the harness can both time it and assert cross-engine equality.
    """
    from repro.nvsim.published import sram_baseline
    from repro.sim.config import gainestown
    from repro.sim.hierarchy import filter_private
    from repro.sim.llc import simulate_llc
    from repro.workloads.generators import generate_trace

    arch = gainestown()
    leela = generate_trace("leela", n_accesses=30_000)
    cg = generate_trace("cg", n_accesses=30_000)
    bzip2 = generate_trace("bzip2", n_accesses=40_000)
    private = filter_private(bzip2, arch)
    llc_kwargs = dict(
        associativity=arch.llc_associativity,
        block_bytes=arch.llc_block_bytes,
        n_cores=arch.n_cores,
        mlp_window=arch.mlp_window_instructions,
        mlp_ceiling=arch.max_mlp,
    )
    sram_capacity = sram_baseline().capacity_bytes

    def private_filter(engine: str):
        return filter_private(leela, arch, engine=engine)

    def private_filter_mt(engine: str):
        return filter_private(cg, arch, engine=engine)

    def llc_replay(engine: str):
        return simulate_llc(
            private.stream, sram_capacity, engine=engine, **llc_kwargs
        )

    def llc_capacity_sweep(engine: str):
        # The fixed-area experiments' shape: one stream replayed at
        # several capacities.
        return tuple(
            simulate_llc(private.stream, cap, engine=engine, **llc_kwargs)
            for cap in (256 * 1024, 512 * 1024, 2 * 1024 * 1024, 4 * 1024 * 1024)
        )

    return [
        ("private_filter", private_filter),
        ("private_filter_mt", private_filter_mt),
        ("llc_replay", llc_replay),
        ("llc_capacity_sweep", llc_capacity_sweep),
    ]


def _private_key(result) -> tuple:
    """Comparable digest of a PrivateResult (streams are numpy arrays,
    so the dataclass itself has no useful ``==``)."""
    stream = result.stream
    return (
        stream.blocks.tobytes(),
        stream.writes.tobytes(),
        stream.cores.tobytes(),
        stream.instr_positions.tobytes(),
        tuple(
            (c.instructions, c.accesses, c.l1_hits, c.l1_misses, c.l2_hits, c.l2_misses)
            for c in result.per_core
        ),
    )


def comparable(value) -> object:
    """Normalise a benchmark result for cross-engine equality checks."""
    if isinstance(value, tuple):
        return tuple(comparable(v) for v in value)
    if hasattr(value, "stream"):
        return _private_key(value)
    return value  # LLCCounts compares field-wise


def record(reps: int) -> dict:
    """Run every benchmark under every engine; return the snapshot."""
    benches = build_benchmarks()
    out: Dict[str, dict] = {}
    for name, fn in benches:
        timings: Dict[str, dict] = {}
        results: Dict[str, object] = {}
        for engine in BENCH_ENGINES:
            best, result = _best_of(lambda: fn(engine), reps)
            timings[engine] = {"best_s": round(best, 6), "reps": reps}
            results[engine] = comparable(result)
        baseline = results["reference"]
        for engine in BENCH_ENGINES[1:]:
            if results[engine] != baseline:
                raise SystemExit(
                    f"FATAL: engine {engine!r} diverged from reference "
                    f"on benchmark {name!r} — do not record this snapshot"
                )
        ref_s = timings["reference"]["best_s"]
        timings["speedup_vs_reference"] = {
            engine: round(ref_s / timings[engine]["best_s"], 2)
            for engine in BENCH_ENGINES[1:]
        }
        out[name] = timings
        print(
            f"{name}: "
            + "  ".join(
                f"{engine} {timings[engine]['best_s'] * 1e3:.1f}ms"
                for engine in BENCH_ENGINES
            ),
            file=sys.stderr,
        )
    return {
        "schema": BENCH_SCHEMA,
        "recorded_unix": int(time.time()),
        "host": host_fingerprint(),
        "engines": list(BENCH_ENGINES),
        "benchmarks": out,
    }


def record_serve(scenario_names, shard_counts, workers: int) -> dict:
    """Sweep each load scenario across real fleets; return the snapshot.

    Scenarios with ``service_time_ms > 0`` run the emulated backend
    (jobs sleep a calibrated service time with the GIL released), which
    is the only honest way to measure shard *scaling* on a small host;
    unpaced scenarios record the real-compute control.  The host
    fingerprint travels with the numbers either way.
    """
    from repro.loadgen import (
        render_fleet,
        resolve_scenario,
        summarize_fleet,
        sweep_shards,
    )

    scenarios: Dict[str, dict] = {}
    for name in scenario_names:
        scenario = resolve_scenario(name)
        print(f"scenario {scenario.name}: shard counts {shard_counts}",
              file=sys.stderr)
        runs = sweep_shards(
            scenario, shard_counts, workers=workers,
            progress=lambda message: print(f"  {message}", file=sys.stderr),
        )
        report = summarize_fleet(runs, scenario.as_dict())
        scenarios[scenario.name] = report
        print(render_fleet(report), file=sys.stderr, end="")
    return {
        "schema": BENCH_SCHEMA,
        "recorded_unix": int(time.time()),
        "host": host_fingerprint(),
        "serve": {
            "shard_counts": list(shard_counts),
            "workers_per_shard": workers,
            "scenarios": scenarios,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON snapshot here (default: stdout)",
    )
    parser.add_argument(
        "--reps", type=int, default=5,
        help="timing repetitions per (benchmark, engine); best is kept",
    )
    parser.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="record serve-fleet load scenarios instead of engine "
        "microbenchmarks (the BENCH_0008.json mode)",
    )
    parser.add_argument(
        "--compression", action="store_true",
        help="also run tools/compression_smoke.py's compressed-LLC "
        "acceptance measurement and embed its summary (lifetime gains, "
        "byte fractions, orderings) in the snapshot "
        "(the BENCH_0010.json mode)",
    )
    parser.add_argument(
        "--scenario", action="append", metavar="NAME_OR_PATH",
        help="load scenario(s) for --serve; repeatable "
        "(default: scaling, compute)",
    )
    parser.add_argument(
        "--shard-counts", default="1,2,4", metavar="N,N,...",
        help="fleet sizes swept by --serve (default: 1,2,4)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker threads per shard in --serve mode (default: 2)",
    )
    args = parser.parse_args(argv)
    if args.serve:
        try:
            shard_counts = [
                int(part) for part in args.shard_counts.split(",") if part
            ]
        except ValueError:
            raise SystemExit(
                f"--shard-counts must be comma-separated integers, "
                f"got {args.shard_counts!r}"
            )
        snapshot = record_serve(
            args.scenario or ["scaling", "compute"],
            shard_counts, args.workers,
        )
        text = json.dumps(snapshot, indent=2 if args.pretty else None,
                          sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"snapshot written to {args.out}", file=sys.stderr)
        else:
            print(text)
        return 0
    snapshot = record(args.reps)
    if args.compression:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import compression_smoke

        summary = compression_smoke.measure()
        print(
            f"compression: {summary['cells']} cells, "
            f"lifetime ordered: {summary['lifetime_ordered']}, "
            f"energy ordered: {summary['energy_ordered']}, "
            f"golden mismatches: {summary['golden_mismatches']}",
            file=sys.stderr,
        )
        snapshot["compression"] = summary
    text = json.dumps(snapshot, indent=2 if args.pretty else None, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"snapshot written to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
