"""``repro-cli`` — task-oriented command line for the library.

Subcommands (each prints a small report to stdout):

- ``characterize`` — PRISM features for a suite workload or a trace file
- ``simulate``     — run a workload on an LLC model vs the SRAM baseline
- ``model``        — generate an LLC model from a library cell
- ``lifetime``     — project LLC lifetime for a workload on an NVM
- ``techniques``   — evaluate the management techniques on a workload
- ``workloads``    — list the benchmark suite
- ``cache``        — inspect/clear the on-disk replay cache
- ``doctor``       — self-check the installation (environment, cell
  library, model generation, a golden-trace sweep)
- ``serve``        — run the experiment service daemon (:mod:`repro.serve`)
- ``router``       — run the fleet front end over existing shards
- ``fleet``        — launch N shards + shared store + router in one go
- ``loadgen``      — offer a declarative load scenario to a target
  (:mod:`repro.loadgen`), optionally sweeping shard counts
- ``submit``       — submit a job to a running service or fleet router
- ``status``       — poll the service (one job, or every job + health)
- ``fetch``        — fetch a finished job's result payload

The global ``--metrics`` flag (before the subcommand) collects
:mod:`repro.obs` telemetry for the invocation — replay events, cache
hits — and prints the summary to stderr afterwards.
Every input and model output passes the validation firewall
(:mod:`repro.validate`); a violation is an ``error[<CODE>]`` exit.

``repro-experiments`` (see :mod:`repro.experiments.runner`) remains the
paper-regeneration entry point; this CLI serves ad-hoc use.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import List, Optional

from repro import units
from repro.cells.library import cell_by_name
from repro.errors import ReproError, render_error
from repro.nvsim.config import CacheDesign
from repro.nvsim.model import generate_llc_model
from repro.nvsim.published import published_model, sram_baseline
from repro.prism.profile import FEATURE_NAMES, extract_features
from repro.sim.results import normalize
from repro.sim.system import SimulationSession
from repro.trace.io import load_npz, parse_text
from repro.workloads.generators import generate_trace
from repro.workloads.profiles import PROFILES
from repro.workloads.registry import all_benchmarks


def _get_trace(args: argparse.Namespace):
    """Resolve --workload / --trace-file into a Trace."""
    if getattr(args, "trace_file", None):
        path = args.trace_file
        if path.endswith(".npz"):
            return load_npz(path)
        return parse_text(path, name=path)
    n = getattr(args, "accesses", None)
    return generate_trace(args.workload, n_accesses=n)


def _cmd_workloads(args: argparse.Namespace) -> int:
    print(f"{'name':12s} {'suite':10s} {'threads':>7s} {'paper mpki':>10s}  description")
    for name in all_benchmarks():
        bench = PROFILES[name]
        print(
            f"{name:12s} {bench.suite:10s} {bench.n_threads:7d} "
            f"{bench.paper_mpki:10.1f}  {bench.description}"
        )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    trace = _get_trace(args)
    features = extract_features(trace)
    print(f"workload: {trace.name or '(trace file)'}  accesses: {len(trace):,}")
    for feature in FEATURE_NAMES:
        print(f"  {feature:24s} {getattr(features, feature):14.3f}")
    print(f"  {'write_intensity':24s} {features.write_intensity:14.3f}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = _get_trace(args)
    session = SimulationSession(trace)
    model = published_model(args.llc, args.configuration)
    baseline = session.run(sram_baseline(args.configuration), args.configuration)
    result = session.run(model, args.configuration)
    norm = normalize(result, baseline)
    print(f"workload {trace.name}: {model.name} vs SRAM ({args.configuration})")
    print(f"  runtime    {result.runtime_s * 1e6:10.1f} us  (SRAM {baseline.runtime_s * 1e6:.1f} us)")
    print(f"  LLC energy {result.llc_energy_j * 1e6:10.1f} uJ  (SRAM {baseline.llc_energy_j * 1e6:.1f} uJ)")
    print(f"  mpki       {result.mpki:10.2f}")
    print(f"  speedup      {norm.speedup:8.3f}")
    print(f"  energy ratio {norm.energy_ratio:8.3f}")
    print(f"  ED^2P ratio  {norm.ed2p_ratio:8.3f}")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    cell = cell_by_name(args.cell)
    design = CacheDesign(capacity_bytes=int(args.capacity_mb * units.MB))
    model = generate_llc_model(cell, design)
    print(f"{model.name} @ {model.capacity_mb:g} MB ({model.cell_class.value})")
    print(f"  area        {model.area_mm2:10.3f} mm^2")
    print(f"  tag         {model.tag_latency_s * 1e9:10.3f} ns")
    print(f"  read        {model.read_latency_s * 1e9:10.3f} ns")
    print(f"  write       {model.write_latency_s * 1e9:10.3f} ns (set "
          f"{model.set_latency_s * 1e9:.3f} / reset {model.reset_latency_s * 1e9:.3f})")
    print(f"  E_hit       {model.hit_energy_j * 1e9:10.4f} nJ")
    print(f"  E_miss      {model.miss_energy_j * 1e9:10.4f} nJ")
    print(f"  E_write     {model.write_energy_j * 1e9:10.4f} nJ")
    print(f"  leakage     {model.leakage_w:10.4f} W")
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    from repro.endurance.lifetime import estimate_lifetime
    from repro.endurance.wear import replay_with_wear
    from repro.sim.config import gainestown

    trace = _get_trace(args)
    session = SimulationSession(trace)
    model = published_model(args.llc, "fixed-capacity")
    window = session.run(sram_baseline()).runtime_s
    wear = replay_with_wear(
        session.private.stream, model.capacity_bytes,
        gainestown().llc_associativity,
    )
    estimate = estimate_lifetime(model.name, model.cell_class, wear, window)
    print(f"{model.name} on {trace.name}:")
    print(f"  data-array write rate {estimate.total_write_rate:.3e} /s")
    if estimate.unleveled_years is None:
        print("  lifetime: effectively unlimited (no wear-out)")
    else:
        print(f"  unleveled lifetime {estimate.unleveled_years:.3e} years")
        print(f"  ideally leveled    {estimate.leveled_years:.3e} years "
              f"({estimate.leveling_gain:.1f}x)")
    return 0


def _cmd_techniques(args: argparse.Namespace) -> int:
    from repro.techniques import (
        EarlyWriteTermination,
        ReuseWriteBypass,
        SetRotationLeveling,
        evaluate_all,
    )

    trace = _get_trace(args)
    model = published_model(args.llc, "fixed-capacity")
    evaluations = evaluate_all(
        trace,
        model,
        [SetRotationLeveling(), ReuseWriteBypass(), EarlyWriteTermination()],
    )
    print(f"{model.name} on {trace.name}:")
    print(f"{'technique':26s} {'write cut':>10s} {'energy cut':>11s} {'dram+':>7s}")
    for e in evaluations:
        print(
            f"{e.technique:26s} {e.write_reduction:10.1%} "
            f"{e.energy_reduction:11.1%} {e.extra_dram_writes:7d}"
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.sim.replay_cache import ReplayCache

    cache = ReplayCache()
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.root}")
        return 0
    if args.sweep_tmp:
        swept = cache.sweep_stale_tmp(max_age_s=0.0)
        print(f"swept {swept} stale temp files from {cache.root}")
        return 0
    stats = cache.stats()
    cap = stats["max_bytes"]
    total_mb = stats["total_bytes"] / (1024 * 1024)
    print(f"replay cache: {stats['root']}")
    print(f"  enabled     {stats['enabled']}")
    print(f"  entries     {stats['entries']}")
    print(f"  size        {total_mb:.1f} MB"
          + (f" (cap {cap / (1024 * 1024):.0f} MB)" if cap else " (no cap)"))
    print(f"  temp files  {stats['tmp_files']}")
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.validate.doctor import run_doctor

    return run_doctor()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ExperimentServer, FileResultStore

    given = {"host": args.host, "port": args.port, "workers": args.workers,
             "max_queued": args.queue_max}
    server = ExperimentServer(
        state_dir=args.dir,
        store=(
            FileResultStore(args.store_dir)
            if args.store_dir is not None else None
        ),
        **{name: value for name, value in given.items() if value is not None},
    )
    server.serve_until_drained()
    return 0


def _cmd_router(args: argparse.Namespace) -> int:
    from repro.serve import ShardRouter

    router = ShardRouter(
        args.shards.split(",") if args.shards else [],
        host=args.host or "127.0.0.1", port=args.port or 0,
    )
    router.serve_until_drained()
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    if getattr(args, "action", "run") == "status":
        return _fleet_status(args)
    import signal as _signal

    from repro.serve import Fleet

    fleet = Fleet(
        shards=args.shards,
        root=args.dir,
        workers=args.workers if args.workers is not None else 2,
        router_host=args.host or "127.0.0.1",
        router_port=args.port or 0,
        supervise=bool(getattr(args, "supervise", False)),
    )
    drain = threading.Event()
    for signum in (_signal.SIGTERM, _signal.SIGINT):
        _signal.signal(signum, lambda *_: drain.set())
    with fleet:
        print(f"repro-serve-fleet router on {fleet.url} "
              f"({len(fleet.shard_urls)} shards)")
        for index, url in enumerate(fleet.shard_urls):
            print(f"  shard {index}: {url}")
        print(f"  store:   {fleet.store_dir}")
        sys.stdout.flush()
        while not drain.wait(timeout=60.0):
            pass
    print("fleet drained")
    return 0


def _fleet_status(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    payload = ServeClient(args.url).ring()
    ring = payload["ring"]
    print(f"ring v{ring['version']}: {len(ring['nodes'])} shards in ring, "
          f"{ring['replicas']} vnodes/shard")
    members = payload["members"]
    for url in sorted(members, key=lambda u: members[u]["index"]):
        member = members[url]
        place = "in-ring" if member["in_ring"] else "ejected"
        line = (f"  shard {member['index']}: {url}  "
                f"{member['state']}/{place}")
        if member.get("consecutive_failures"):
            line += f"  failures={member['consecutive_failures']}"
        if member.get("last_error"):
            line += f"  last_error: {member['last_error']}"
        print(line)
    store = payload["store"]
    print(f"store: {store['entries']} entries, "
          f"{store['total_bytes'] / (1024 * 1024):.2f} MB")
    heartbeat = payload["heartbeat"]
    print(f"heartbeat: every {heartbeat['period_s']:g}s, "
          f"timeout {heartbeat['timeout_s']:g}s, "
          f"eject after {heartbeat['eject_after']} failures")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from repro import loadgen

    scenario = loadgen.resolve_scenario(args.scenario)
    if args.shard_counts:
        counts = [int(part) for part in args.shard_counts.split(",")]
        runs = loadgen.sweep_shards(
            scenario, counts, workers=args.workers or 2,
            progress=lambda message: print(f"running {message}",
                                           file=sys.stderr),
        )
        report = loadgen.summarize_fleet(runs, scenario.as_dict())
        if args.json:
            print(_json.dumps(report, indent=2, sort_keys=True))
        else:
            sys.stdout.write(loadgen.render_fleet(report))
        return 0
    summaries = []
    for qps in scenario.qps:
        import time as _time

        start = _time.monotonic()
        records = loadgen.offer(scenario, qps, url=args.url)
        run = loadgen.RateRun(qps, records, _time.monotonic() - start)
        summaries.append(loadgen.summarize_rate(run))
    if args.json:
        print(_json.dumps(
            {"scenario": scenario.as_dict(), "rates": summaries},
            indent=2, sort_keys=True,
        ))
    else:
        print(f"scenario {scenario.name}")
        for summary in summaries:
            print(loadgen.render_rate(summary))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient, submit_with_backoff

    client = ServeClient(args.url)
    response = submit_with_backoff(
        client, args.experiment, scale=args.scale, seed=args.seed,
        priority=args.priority, attempts=max(1, args.retries + 1),
    )
    job = response["job"]
    dedup = " (deduplicated onto an existing job)" if response["deduped"] else ""
    print(f"job {job['id']}  state={job['state']}  "
          f"digest={job['digest'][:16]}{dedup}")
    if not args.wait:
        return 0
    record = client.wait(job["id"], timeout_s=args.timeout)
    if record["state"] != "done":
        print(f"job {job['id']} {record['state']}: "
              f"{record['error'] or '(no detail)'}", file=sys.stderr)
        return 5
    print(client.result(job["id"])["render"])
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    client = ServeClient(args.url)
    if args.job_id:
        record = client.status(args.job_id)
        for key in ("id", "state", "digest", "submissions", "error"):
            if record[key] is not None:
                print(f"  {key:12s} {record[key]}")
        spec = record["spec"]
        print(f"  {'spec':12s} {spec['experiment']} scale={spec['scale']:g} "
              f"seed={spec['seed']}")
        return 0
    health = client.health()
    # A router's health nests each shard's: add up the reachable ones.
    views = [view for view in health.get("shards", {"": health}).values()
             if "workers" in view]
    print(f"service {client.url}: {health['status']}  " + "  ".join(
        f"{key}={sum(view[key] for view in views)}"
        for key in ("workers", "queued", "running")
    ))
    jobs = client.list_jobs()
    if not jobs:
        print("no jobs")
        return 0
    for record in jobs:
        spec = record["spec"]
        print(f"  {record['id']}  {record['state']:9s} "
              f"{spec['experiment']:12s} scale={spec['scale']:g} "
              f"submissions={record['submissions']}")
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    client = ServeClient(args.url)
    if args.json:
        sys.stdout.write(client.result_bytes(args.job_id).decode() + "\n")
        return 0
    payload = client.result(args.job_id)
    print(payload["title"])
    print(payload["render"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-cli", description="NVM-LLC reproduction toolkit"
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect run telemetry (repro.obs) and print a summary to "
        "stderr after the command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the benchmark suite")

    def add_trace_args(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--workload", help="suite benchmark name")
        group.add_argument("--trace-file", help=".npz or text trace file")
        p.add_argument("--accesses", type=int, default=None,
                       help="override trace length (suite workloads)")

    p = sub.add_parser("characterize", help="PRISM features for a workload")
    add_trace_args(p)

    p = sub.add_parser("simulate", help="simulate a workload on an LLC")
    add_trace_args(p)
    p.add_argument("--llc", default="Xue_S", help="Table III model name")
    p.add_argument("--configuration", default="fixed-capacity",
                   choices=("fixed-capacity", "fixed-area"))

    p = sub.add_parser("model", help="generate an LLC model from a cell")
    p.add_argument("--cell", required=True, help="Table II cell name")
    p.add_argument("--capacity-mb", type=float, default=2.0)

    p = sub.add_parser("lifetime", help="project LLC lifetime")
    add_trace_args(p)
    p.add_argument("--llc", default="Kang_P")

    p = sub.add_parser("techniques", help="evaluate management techniques")
    add_trace_args(p)
    p.add_argument("--llc", default="Kang_P")

    p = sub.add_parser("cache", help="inspect/clear the on-disk replay cache")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--clear", action="store_true",
                       help="delete every cache entry")
    group.add_argument("--sweep-tmp", action="store_true",
                       help="remove orphaned *.tmp files regardless of age")

    sub.add_parser(
        "doctor",
        help="self-check the installation (exit 0 = healthy; "
        "10/11/12/13 = environment/cells/models/sweep failure)",
    )

    p = sub.add_parser(
        "serve",
        help="run the experiment service daemon (SIGTERM drains gracefully)",
    )
    p.add_argument("--host", default=None,
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="bind port, 0 = ephemeral (default 8765)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads (default 2)")
    p.add_argument("--queue-max", type=int, default=None,
                   help="queued-job bound before 429 backpressure "
                   "(default 64)")
    p.add_argument("--dir", default=None,
                   help="state directory for the drain journal and per-job "
                   "checkpoints")
    p.add_argument("--store-dir", default=None,
                   help="shared result-store directory for cross-instance "
                   "dedup")

    p = sub.add_parser(
        "router",
        help="run the fleet front end: route jobs across shards by spec "
        "digest over a consistent-hash ring",
    )
    p.add_argument("--shards", default=None,
                   help="comma-separated shard base URLs")
    p.add_argument("--host", default=None,
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="bind port, 0 = ephemeral (default 0)")

    p = sub.add_parser(
        "fleet",
        help="launch N serve shards + a shared result store + a router "
        "(SIGTERM drains the whole fleet), or inspect a running one",
    )
    p.add_argument("action", nargs="?", choices=("run", "status"),
                   default="run",
                   help="'run' (default) launches a fleet; 'status' "
                   "renders a running router's GET /ring — membership, "
                   "ring version, per-shard health, store occupancy")
    p.add_argument("--url", default=None,
                   help="with 'status': router base URL "
                   "(default http://127.0.0.1:8765)")
    p.add_argument("--supervise", action="store_true",
                   help="restart crashed shards in place with exponential "
                   "backoff (self-healing fleet)")
    p.add_argument("--shards", type=int, default=2,
                   help="shard count (default 2)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads per shard (default 2)")
    p.add_argument("--dir", default=None,
                   help="fleet root directory holding the store and each "
                   "shard's state (default: a temp dir)")
    p.add_argument("--host", default=None,
                   help="router bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="router bind port, 0 = ephemeral (default 0)")

    p = sub.add_parser(
        "loadgen",
        help="offer a declarative load scenario (bundled profile name or "
        "profile file) to a service, router, or fresh fleets",
    )
    p.add_argument("scenario",
                   help="bundled profile name (smoke, scaling, "
                   "duplicate_storm, compute, churn) or a JSON profile path")
    p.add_argument("--url", default=None,
                   help="target base URL — a daemon or a router "
                   "(default http://127.0.0.1:8765)")
    p.add_argument("--shard-counts", default=None,
                   help="comma-separated shard counts (e.g. 1,2,4): boot a "
                   "fresh fleet per count and sweep the scenario's rates")
    p.add_argument("--workers", type=int, default=None,
                   help="with --shard-counts: worker threads per shard "
                   "(default 2)")
    p.add_argument("--json", action="store_true",
                   help="print the full report as JSON instead of text")

    def add_url(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default=None,
                       help="service base URL "
                       "(default http://127.0.0.1:8765)")

    p = sub.add_parser(
        "submit", help="submit a job to a running service or fleet router"
    )
    p.add_argument("--experiment", required=True,
                   help="experiment id (e.g. table2, figure1, coresweep)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="trace-length scale factor in (0, 1]")
    p.add_argument("--seed", type=int, default=None,
                   help="workload generator seed")
    p.add_argument("--priority", type=int, default=0,
                   help="dispatch priority (higher runs first)")
    p.add_argument("--wait", action="store_true",
                   help="poll until done and print the rendered result")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="seconds to wait with --wait (default 600)")
    p.add_argument("--retries", type=int, default=3,
                   help="resubmissions on retryable fleet conditions — "
                   "429 BUSY backpressure or 503 DEGRADED (a dead shard "
                   "not yet healed) — honouring Retry-After (default 3)")
    add_url(p)

    p = sub.add_parser(
        "status", help="poll the service (one job, or every job + health)"
    )
    p.add_argument("job_id", nargs="?", default=None,
                   help="job id (omit to list all jobs)")
    add_url(p)

    p = sub.add_parser("fetch", help="fetch a finished job's result payload")
    p.add_argument("job_id", help="job id")
    p.add_argument("--json", action="store_true",
                   help="print the raw canonical JSON payload")
    add_url(p)

    return parser


_HANDLERS = {
    "workloads": _cmd_workloads,
    "characterize": _cmd_characterize,
    "simulate": _cmd_simulate,
    "model": _cmd_model,
    "lifetime": _cmd_lifetime,
    "techniques": _cmd_techniques,
    "cache": _cmd_cache,
    "doctor": _cmd_doctor,
    "serve": _cmd_serve,
    "router": _cmd_router,
    "fleet": _cmd_fleet,
    "loadgen": _cmd_loadgen,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "fetch": _cmd_fetch,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    from repro import obs

    parser = build_parser()
    args = parser.parse_args(argv)
    registry = obs.enable() if args.metrics else None
    try:
        return _HANDLERS[args.command](args)
    except ReproError as error:
        print(render_error(error), file=sys.stderr)
        return error.exit_code
    finally:
        if registry is not None:
            sys.stderr.write(obs.render_summary(registry.snapshot()))
            obs.disable()


if __name__ == "__main__":
    sys.exit(main())
