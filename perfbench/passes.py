"""The benchmark's workloads: one pass of fixed work each, plus checks.

A pass returns its operations as :class:`Op` records, each timed as
part of a calibrated unit (see :mod:`calibration`), and the outputs the
correctness gate compares.  Every pass runs against fresh temporary
directories for the replay cache, fleet state and result store.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Trace scale of every experiment: the golden scale.
SCALE = 0.05

#: The paper's evaluation: LLC replay and the private filter own the clock.
SWEEP = ("table2", "table3", "table5", "table6", "figure1", "figure2",
         "figure4", "coresweep", "sensitivity")

#: Technique, wear and compression replay own the clock.
TECHNIQUES = ("lifetime", "techniques", "compression")

#: Served experiments; specs of one trace seed share LLC replays.
SERVE_EXPERIMENTS = ("table5", "figure1", "table6")
SERVE_TRACE_SEEDS = 3
SERVE_REPEATS = 4
#: Requests per calibrated unit; a block is short enough for the
#: calibration around it to follow the host's speed.
SERVE_BLOCK = 9


@dataclass
class Op:
    """One operation: an experiment or a served request."""

    name: str
    host_s: float
    factor: float
    ok: bool = True
    #: Served requests: answered without computing.
    hit: bool = False
    job_id: str = ""
    digest: str = ""

    @property
    def seconds(self) -> float:
        """Calibrated latency."""
        return self.host_s * self.factor


@dataclass
class Pass:
    ops: List[Op]
    #: Output per key (experiment name or spec digest), compared across
    #: passes and against references.
    outputs: Dict[str, bytes]
    #: Host seconds and calibration factor of each unit.
    units: List[Tuple[float, float]]
    #: Root spans of the pass when traced.
    roots: List[list]
    #: Serve only: queue waits and router probes, gathered after the
    #: timed blocks.
    extras: Optional[dict] = None

    @property
    def wall_s(self) -> float:
        return sum(host * factor for host, factor in self.units)


def trace_seed(seed: int) -> int:
    """The workload seed the program receives for a benchmark seed."""
    return seed % (2 ** 32)


class Workspace:
    """Fresh directories under the checkout, removed after each pass."""

    def __init__(self, root: Path) -> None:
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def fresh(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.root))

    @staticmethod
    def point_replay_cache(directory: Path) -> None:
        from repro.sim.replay_cache import reset_default_cache

        os.environ["REPRO_CACHE_DIR"] = str(directory)
        reset_default_cache()


def _timed(yardstick, tracer, label, work):
    """Measure one unit; open a root span around it when tracing."""
    if tracer is None:
        return yardstick.measure(work) + (None,)
    holder = {}

    def traced():
        holder["root"] = tracer.open(label)
        try:
            return work()
        finally:
            tracer.close(holder["root"])

    return yardstick.measure(traced) + (holder["root"],)


def experiment_pass(names, seed, workspace, yardstick, tracer=None,
                    index=0) -> Pass:
    """Run ``names`` serially through one fresh ExperimentContext."""
    from repro.experiments.common import ExperimentContext
    from repro.experiments.runner import run_experiment

    directory = workspace.fresh()
    try:
        workspace.point_replay_cache(directory / "cache")
        context = ExperimentContext(scale=SCALE, seed=trace_seed(seed))
        features = None
        ops, outputs, units, roots = [], {}, [], []
        for name in names:
            def work(name=name):
                nonlocal features
                _, text, features = run_experiment(name, context, features)
                return text

            try:
                text, host, factor, root = _timed(
                    yardstick, tracer, f"{index}/{name}", work)
            except Exception as error:  # counted as a failed operation
                outputs[name] = repr(error).encode()
                ops.append(Op(name, 0.0, 1.0, ok=False))
                continue
            outputs[name] = text.encode()
            ops.append(Op(name, host, factor))
            units.append((host, factor))
            roots.append(root)
        return Pass(ops, outputs, units, [r for r in roots if r])
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def serve_schedule(seed: int) -> List[Tuple[str, int]]:
    """Each distinct spec ``SERVE_REPEATS`` times, in a seeded order."""
    base = trace_seed(seed)
    specs = [(experiment, base + offset)
             for experiment in SERVE_EXPERIMENTS
             for offset in range(SERVE_TRACE_SEEDS)]
    schedule = specs * SERVE_REPEATS
    random.Random(seed).shuffle(schedule)
    return schedule


def _request(client, experiment, spec_seed):
    """Submit one spec and wait for its bytes: ``(hit, job, payload)``."""
    response = client.submit(experiment, scale=SCALE, seed=spec_seed)
    job = response["job"]
    if job["state"] != "done":
        job = client.wait(job["id"], timeout_s=120.0)
    if job["state"] != "done":
        raise RuntimeError(f"job {job['id']} ended {job['state']}: {job['error']}")
    return response["deduped"], job, client.result_bytes(job["id"])


def serve_pass(schedule, workspace, yardstick, tracer=None, index=0,
               probe_router=False) -> Pass:
    """One fresh 2-shard in-process fleet; one closed-loop client."""
    from repro.serve.client import ServeClient
    from repro.serve.fleet import InProcessFleet

    directory = workspace.fresh()
    fleet = None
    try:
        workspace.point_replay_cache(directory / "cache")
        fleet = InProcessFleet(shards=2, root=str(directory / "fleet"),
                               workers=1).start()
        client = ServeClient(fleet.url, timeout_s=120.0)
        client.health()

        ops, outputs, units, roots = [], {}, [], []

        def block(start):
            for number in range(start, min(start + SERVE_BLOCK, len(schedule))):
                experiment, spec_seed = schedule[number]
                span = tracer.open(f"request {number}") if tracer else None
                began = time.perf_counter()
                try:
                    hit, job, payload = _request(client, experiment, spec_seed)
                except Exception as error:  # counted as a failed operation
                    ops.append(Op(experiment, time.perf_counter() - began, 1.0,
                                  ok=False))
                    outputs[f"failed {number}"] = repr(error).encode()
                    continue
                finally:
                    if span is not None:
                        tracer.close(span)
                ops.append(Op(experiment, time.perf_counter() - began, 1.0,
                              hit=hit, job_id=job["id"], digest=job["digest"]))
                previous = outputs.setdefault(job["digest"], payload)
                ops[-1].ok = previous == payload

        for start in range(0, len(schedule), SERVE_BLOCK):
            first = len(ops)
            _, host, factor, root = _timed(
                yardstick, tracer, f"{index}/serve {start}", lambda: block(start))
            for op in ops[first:]:
                op.factor = factor
            units.append((host, factor))
            roots.append(root)
        extras = _serve_extras(client, fleet, ops, probe_router)
        return Pass(ops, outputs, units, [r for r in roots if r], extras)
    finally:
        if fleet is not None:
            fleet.stop()
        shutil.rmtree(directory, ignore_errors=True)


def _serve_extras(client, fleet, ops, probe_router) -> dict:
    """Queue waits of computed jobs and, optionally, router proxy time.

    Proxy time is the same status + result call made through the router
    and straight to the job's home shard, alternating which goes first.
    """
    from repro.serve.client import ServeClient

    waits = []
    for op in ops:
        if op.ok and not op.hit:
            job = client.status(op.job_id)
            waits.append(job["started_unix"] - job["submitted_unix"])
    extras = {"queue_waits_s": waits, "routed_s": [], "direct_s": []}
    if not probe_router:
        return extras
    ring = fleet.router.ring
    for turn, op in enumerate(o for o in ops if o.ok and o.hit):
        home = ServeClient(ring.node_for(op.digest))
        timings = {}
        order = (("routed_s", client), ("direct_s", home))
        for key, target in order if turn % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            target.status(op.job_id)
            target.result_bytes(op.job_id)
            timings[key] = time.perf_counter() - start
        for key, value in timings.items():
            extras[key].append(value)
    return extras


def reference_payload(experiment: str, spec_seed: int, workspace) -> bytes:
    """The in-process bytes the served payload must equal."""
    from repro.serve.jobs import JobSpec, execute_spec

    directory = workspace.fresh()
    try:
        workspace.point_replay_cache(directory / "cache")
        return execute_spec(JobSpec(experiment, SCALE, spec_seed))
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def golden_mismatches(name: str, text: str, repo: Path) -> Optional[List[str]]:
    """Differences from the golden snapshot; None if none is pinned."""
    from repro.validate.golden import compare_rendered, load_snapshot

    path = repo / "tests" / "golden" / "snapshots" / f"{name}.json"
    if not path.exists():
        return None
    return compare_rendered(load_snapshot(path)["render"], text, label=name)
