#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the NVM-LLC reproduction.

Usage (from the repository root; ``BENCHMARK.json`` holds the command)::

    python3 perfbench/run.py --calibration 1:0.038 \\
        --workload sweep --seed 20190901 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``sweep``: the paper's experiments at the golden scale;
- ``techniques``: lifetime, techniques and compression;
- ``serve``: a closed-loop client against an in-process 2-shard fleet.

A run sets up (median of fresh-interpreter probes), runs one warm-up
pass that is discarded, then runs passes until ``--seconds`` are spent,
checks every output, and prints one JSON line last.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer split of the median traced pass
(:mod:`tracing`).  Times are calibrated seconds (:mod:`calibration`).
Exit code 0 means every output was correct, 1 means a check failed,
2 means the run could not start.  Results are also written to
``perfbench/out/``; compare two sets with ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"

from calibration import KERNEL_VERSION, CalibrationError, Yardstick, parse_reference  # noqa: E402
import passes  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("sweep", "techniques", "serve")
SETUP_PROBES = 7
MIN_PASSES = 3


def isolate_environment() -> None:
    """Drop inherited ``REPRO_*`` knobs; keep all scratch in the checkout."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    src = str(REPO / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, src)


def fingerprint() -> dict:
    import numpy

    import repro
    from repro.sim.engine import resolve_engine
    from repro.validate.policy import current_policy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "engine": resolve_engine(None),
        "validate": current_policy().value,
        "host": f"{cpu} x{os.cpu_count()}; {platform.platform()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "kernel_version": KERNEL_VERSION,
    }


# -- set-up ----------------------------------------------------------------

def setup_probes(workload, workspace, yardstick) -> dict:
    """Median calibrated spawn-to-ready time over fresh interpreters."""
    totals, hosts, imports, fleets = [], [], [], []
    for number in range(SETUP_PROBES + 1):  # the first probe is discarded
        directory = workspace.fresh()
        env = dict(os.environ, REPRO_CACHE_DIR=str(directory / "cache"))
        try:
            (ready, child), _, factor = yardstick.measure(
                lambda: _probe(workload, directory / "fleet", env))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if number:
            totals.append(ready * factor)
            hosts.append(ready)
            imports.append(child["import_s"] * factor)
            fleets.append(child["fleet_s"] * factor)
    return {"setup_s": statistics.median(totals),
            "host_s": statistics.median(hosts),
            "import_s": statistics.median(imports),
            "fleet_s": statistics.median(fleets)}


def _probe(workload, directory, env):
    """Spawn one probe; returns host seconds to its ready line and its
    own timings.  The probe is killed once ready: shutting its fleet
    down is not set-up."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(directory)],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        line = process.stdout.readline()
        ready = time.perf_counter() - start
    finally:
        process.kill()
        _, err = process.communicate(timeout=60)
    if not line:
        raise RuntimeError(f"set-up probe failed ({process.returncode}): {err[-2000:]}")
    return ready, json.loads(line)


# -- passes ----------------------------------------------------------------

def run_passes(args, workspace, yardstick, tracer):
    """Warm-up pass, then timed passes until the budget is spent.

    Returns ``(warmup, timed)``; ``timed`` holds ``(pass, marks)``
    pairs, where ``marks`` are the tracer marks before and after a
    traced pass, else None.
    """
    schedule = passes.serve_schedule(args.seed)

    def one(index, traced):
        active = tracer if traced else None
        if traced:
            tracer.install()
        try:
            start = tracer.mark() if traced else None
            if args.workload == "serve":
                result = passes.serve_pass(schedule, workspace, yardstick,
                                           active, index, probe_router=traced)
            else:
                names = passes.SWEEP if args.workload == "sweep" else passes.TECHNIQUES
                result = passes.experiment_pass(names, args.seed, workspace,
                                                yardstick, active, index)
        finally:
            if traced:
                tracer.uninstall()
        return result, (start, tracer.mark()) if traced else None

    warmup, _ = one(0, False)
    timed = []
    begin = time.perf_counter()
    last = 0.0
    minimum = 2 * MIN_PASSES - 2 if args.trace else MIN_PASSES
    # Start another pass while at least half of it fits the budget, so
    # the passes take ``--seconds`` on average.
    while len(timed) < minimum or \
            time.perf_counter() - begin + last / 2 < args.seconds:
        started = time.perf_counter()
        timed.append(one(len(timed) + 1, bool(args.trace) and len(timed) % 2 == 1))
        last = time.perf_counter() - started
    return warmup, timed


# -- correctness -----------------------------------------------------------

def check(args, warmup, timed, workspace) -> tuple:
    """Mark wrong operations.

    Every pass must repeat the first pass byte for byte; served bytes
    must equal an in-process ``execute_spec`` of the same spec; at the
    golden seed, renders must match the golden snapshots.  Returns
    ``(attempted, failed, problems, golden_checked)``.
    """
    from repro.workloads.generators import DEFAULT_SEED

    problems, bad = [], set()
    for number, (result, _) in enumerate(timed, 1):
        for key, output in result.outputs.items():
            if warmup.outputs.get(key) != output:
                bad.add(key)
                problems.append(f"pass {number}: {key} differs from the first pass")
    seed = passes.trace_seed(args.seed)
    renders = {}  # output key -> (experiment, render)
    if args.workload == "serve":
        for experiment in passes.SERVE_EXPERIMENTS:
            digest = next((op.digest for op in warmup.ops if op.ok and op.name == experiment
                           and json.loads(warmup.outputs[op.digest])["seed"] == seed), None)
            if digest is None:
                continue
            payload = warmup.outputs[digest]
            renders[digest] = (experiment, json.loads(payload)["render"])
            if passes.reference_payload(experiment, seed, workspace) != payload:
                bad.add(digest)
                problems.append(f"served {experiment} differs from in-process execute_spec")
    else:
        renders = {op.name: (op.name, warmup.outputs[op.name].decode())
                   for op in warmup.ops if op.ok}
    golden_checked = []
    if seed == DEFAULT_SEED:
        for key, (name, text) in renders.items():
            mismatches = passes.golden_mismatches(name, text, REPO)
            if mismatches is None:
                continue
            golden_checked.append(name)
            if mismatches:
                bad.add(key)
                problems.extend(mismatches[:3])
    ops = [op for result in [warmup] + [r for r, _ in timed] for op in result.ops]
    failed = sum(1 for op in ops if not op.ok or (op.digest or op.name) in bad)
    problems += [f"{op.name} failed" for op in ops if not op.ok][:3]
    return len(ops), failed, problems, golden_checked


# -- metrics ---------------------------------------------------------------

def tail(values, percentile=0.9):
    """``(value, percentile, n)``: the highest percentile up to
    ``percentile`` that has at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    q = min(percentile, max(0.5, 1.0 - 10.0 / n))
    return values[max(0, math.ceil(q * n) - 1)], q, n


def end_to_end(setup, timed) -> dict:
    walls = [result.wall_s for result, _ in timed]
    return {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def serve_client(untraced) -> dict:
    hits = [op.seconds * 1000 for r in untraced for op in r.ops if op.ok and op.hit]
    misses = [op.seconds * 1000 for r in untraced for op in r.ops if op.ok and not op.hit]
    return {"hits": hits, "misses": misses}


def per_layer(args, setup, timed, tracer) -> dict:
    """The per-layer split of the median traced pass, plus probes."""
    traced = sorted(((r, m) for r, m in timed if m is not None),
                    key=lambda item: item[0].wall_s)
    untraced = [r for r, m in timed if m is None]
    chosen, (start, end) = traced[(len(traced) - 1) // 2]
    spans = tracer.spans[start[0]:end[0]]
    selfs = {}
    for root, (host, factor) in zip(chosen.roots, chosen.units):
        for layer, seconds in tracing.self_times(spans, root).items():
            selfs[layer] = selfs.get(layer, 0.0) + seconds * factor
    traced_s = sum((root[2] - root[1]) * factor
                   for root, (_, factor) in zip(chosen.roots, chosen.units))
    counts = tracer.counts_between(start, end)
    metrics = {}
    for layer in tracing.LAYERS:
        layer_counts = counts.get(layer.name, {})
        metrics[f"{layer.name}.calls"] = layer_counts.get("calls", 0)
        for name in layer.counts:
            metrics[f"{layer.name}.{name}"] = layer_counts.get(name, 0)
        metrics[f"{layer.name}.self_s"] = selfs.get(layer.name, 0.0)
        metrics[f"{layer.name}.share"] = 100.0 * selfs.get(layer.name, 0.0) / traced_s
    metrics["untraced.self_s"] = selfs.get(tracing.UNTRACED, 0.0)
    metrics["untraced.share"] = 100.0 * metrics["untraced.self_s"] / traced_s
    metrics["tracing.pass_s"] = traced_s
    metrics["tracing.overhead_s"] = (
        statistics.median(r.wall_s for r, _ in traced)
        - statistics.median(r.wall_s for r in untraced))

    extras = chosen.extras or {"queue_waits_s": [], "routed_s": [], "direct_s": []}
    factor = chosen.units[-1][1]  # the probes ran right after the last unit
    routed_ms, direct_ms = _ms(extras["routed_s"], factor), _ms(extras["direct_s"], factor)
    client = serve_client(untraced if args.workload == "serve" else [])
    probed = {
        "serve.router.calls": len(extras["routed_s"]),
        "serve.router.proxy_ms": routed_ms - direct_ms,
        "serve.router.routed_ms": routed_ms,
        "serve.router.direct_ms": direct_ms,
        "serve.queue.calls": len(extras["queue_waits_s"]),
        "serve.queue.wait_ms": _ms(extras["queue_waits_s"], factor),
        "serve.queue.deduped": sum(1 for op in chosen.ops if op.ok and op.hit),
        "serve.client.hit_p50_ms": _median(client["hits"]),
        "serve.client.hit_p90_ms": tail(client["hits"])[0],
        "serve.client.miss_p50_ms": _median(client["misses"]),
        "setup.import.self_s": setup["import_s"],
        "setup.fleet.self_s": setup["fleet_s"] if args.workload == "serve" else 0.0,
    }
    for layer in tracing.PROBED_LAYERS:
        for name in layer.counts:
            metrics[f"{layer.name}.{name}"] = probed[f"{layer.name}.{name}"]
    return metrics


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ms(seconds, factor) -> float:
    return _median(seconds) * factor * 1000


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share"):
        return "%"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


# -- main ------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibration", required=True, metavar="VERSION:SECONDS",
                        help="kernel version and reference time (from BENCHMARK.json)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {REPO / 'src'}", file=sys.stderr)
        return 2
    try:
        reference = parse_reference(args.calibration)
    except CalibrationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    isolate_environment()
    import repro.experiments.runner  # noqa: F401  (set-up outside every timer)
    import repro.serve.fleet  # noqa: F401

    info = fingerprint()
    workspace = passes.Workspace(OUT / "tmp")
    yardstick = Yardstick(reference)
    setup = setup_probes(args.workload, workspace, yardstick)
    tracer = tracing.Tracer()
    warmup, timed = run_passes(args, workspace, yardstick, tracer)
    attempted, failed, problems, golden_checked = check(args, warmup, timed, workspace)

    if args.trace:
        values = per_layer(args, setup, timed, tracer)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in values.items()}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(setup, timed).items()}

    untraced = [r for r, m in timed if m is None]
    host_walls = [sum(host for host, _ in r.units) for r in untraced]
    diagnostics = dict(info, **{
        "passes": len(timed),
        "fail_frac": failed / attempted,
        "golden_checked": golden_checked,
        "host_wall_s": statistics.median(host_walls),
        "pass_walls_s": [round(r.wall_s, 4) for r in untraced],
        "pass_host_walls_s": [round(w, 4) for w in host_walls],
        "calibration_s": statistics.median(yardstick.samples),
        "calibration_spread": [min(yardstick.samples), max(yardstick.samples)],
        "setup_host_s": setup["host_s"],
        "setup_import_s": setup["import_s"],
    })
    samples = {"ops": [op.seconds * 1000 for r in untraced for op in r.ops if op.ok]}
    if args.workload == "serve":
        samples.update(serve_client(untraced))
    for kind, values in samples.items():
        value, q, n = tail(values)
        diagnostics[f"{kind}_p50_ms"] = _median(values)
        diagnostics[f"{kind}_tail_ms"] = f"p{round(q * 100)} {value:.3f} of {n} samples"
    for key, value in diagnostics.items():
        print(f"{key}: {value}")
    for problem in problems:
        print(f"problem: {problem}")
    correct = failed == 0 and not problems
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record = dict(line, workload=args.workload, seed=args.seed, trace=args.trace,
                  kernel_version=KERNEL_VERSION, reference_s=reference,
                  diagnostics=diagnostics)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
