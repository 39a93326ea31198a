"""Scenario launcher: offer a declarative load profile to a target.

The launcher turns a :class:`~repro.loadgen.scenario.Scenario` into an
*open-loop* request timeline (arrival offsets x a deterministic job
mix with duplicate injection) and offers it to a target — one daemon,
a router URL, or a shard list via client-side routing — from a bounded
pool of client threads.  Every request's fate is a
:class:`RequestRecord`; :mod:`repro.loadgen.report` folds records into
percentile/throughput summaries.

:func:`sweep_shards` is the fleet harness: for each shard count it
boots a real subprocess :class:`~repro.serve.fleet.Fleet` (shared
result store, router front end), runs the scenario's full rate sweep
against the router, collects the router's aggregated ``/metrics``
counters (executed / store-satisfied / deduped), and tears the fleet
down — the measurement loop behind ``repro-cli loadgen --shard-counts``
and ``BENCH_0008.json``.

Determinism: the request *content* and *schedule* derive entirely from
``(scenario.seed, qps)`` via stable string-seeded RNGs.  Wall-clock
execution is of course not deterministic — that is what is being
measured.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import (
    DegradedError,
    LoadGenError,
    QueueFullError,
    ServeError,
)
from repro.loadgen.arrivals import arrival_offsets
from repro.loadgen.pacing import SERVICE_MS_ENV
from repro.loadgen.scenario import Scenario
from repro.serve.client import ServeClient, ShardedClient

#: Request terminal states a record may carry.
REQUEST_STATES = ("done", "failed", "rejected", "timeout", "error")


@dataclass
class PlannedRequest:
    """One entry of the offered timeline (content, not outcome)."""

    index: int
    offset_s: float
    body: Dict[str, Any]
    duplicate: bool


@dataclass
class RequestRecord:
    """What actually happened to one offered request."""

    index: int
    offset_s: float
    body: Dict[str, Any]
    duplicate: bool
    state: str = "error"
    job_id: Optional[str] = None
    deduped: bool = False
    #: Seconds from *scheduled* start to terminal state (client-visible).
    latency_s: float = 0.0
    #: Seconds the submission itself took (queue admission).
    submit_s: float = 0.0
    #: How late the client thread fired relative to schedule.
    late_s: float = 0.0
    error: Optional[str] = None


def plan_requests(scenario: Scenario, qps: float) -> List[PlannedRequest]:
    """The deterministic request timeline for one rate."""
    import random

    offsets = arrival_offsets(
        scenario.arrival, qps, scenario.duration_s, scenario.seed
    )
    rng = random.Random(f"{scenario.seed}:{qps:g}:mix")
    weights = [entry.weight for entry in scenario.mix]
    issued: List[Dict[str, Any]] = []
    planned: List[PlannedRequest] = []
    variant_counters = [0] * len(scenario.mix)
    for index, offset in enumerate(offsets):
        duplicate = bool(
            issued and rng.random() < scenario.duplicate_rate
        )
        if duplicate:
            body = dict(rng.choice(issued))
        else:
            choice = rng.choices(range(len(scenario.mix)),
                                 weights=weights)[0]
            entry = scenario.mix[choice]
            body = entry.spec(variant_counters[choice], scenario.seed)
            variant_counters[choice] += 1
            issued.append(body)
        planned.append(PlannedRequest(index, offset, body, duplicate))
    return planned


def _drive_one(
    client,
    planned: PlannedRequest,
    start_monotonic: float,
    timeout_s: float,
) -> RequestRecord:
    record = RequestRecord(
        planned.index, planned.offset_s, planned.body, planned.duplicate
    )
    target = start_monotonic + planned.offset_s
    delay = target - time.monotonic()
    if delay > 0:
        time.sleep(delay)
    record.late_s = max(0.0, time.monotonic() - target)
    submit_start = time.monotonic()
    try:
        response = client.submit(
            planned.body["experiment"],
            scale=planned.body.get("scale", 1.0),
            seed=planned.body.get("seed"),
        )
        record.submit_s = time.monotonic() - submit_start
        record.job_id = response["job"]["id"]
        record.deduped = bool(response.get("deduped"))
        terminal = client.wait(record.job_id, timeout_s=timeout_s)
        record.state = "done" if terminal["state"] == "done" else "failed"
        if record.state == "failed":
            record.error = terminal.get("error")
    except (QueueFullError, DegradedError) as error:
        # Both carry Retry-After and are loss-free to resubmit (dedup
        # by spec digest); the harness books them as rejections rather
        # than errors so churn runs distinguish backpressure/degraded
        # windows from real failures.
        record.state = "rejected"
        record.error = str(error)
    except ServeError as error:
        record.state = (
            "timeout" if getattr(error, "http_status", None) == 504
            else "error"
        )
        record.error = str(error)
    record.latency_s = time.monotonic() - target
    return record


class ChurnDriver:
    """Applies a scenario's membership events to a fleet on schedule.

    One daemon thread sleeps to each :class:`ChurnEvent`'s offset from
    the load window's start and applies it to the fleet handle —
    ``kill`` (SIGKILL, crash stays visible to the supervisor),
    ``restart`` (graceful bounce in place), ``add`` (grow by one
    shard, joined to the live ring) and ``remove`` (leave the ring,
    then drain).  ``applied`` records what happened to each event, so
    churn reports show the membership timeline next to the request
    outcomes.
    """

    def __init__(self, fleet, events, start_monotonic: float) -> None:
        self.fleet = fleet
        self.events = list(events)
        self.start = start_monotonic
        self.applied: List[Dict[str, Any]] = []
        self._thread: Optional[threading.Thread] = None

    def start_thread(self) -> "ChurnDriver":
        self._thread = threading.Thread(
            target=self._run, name="loadgen-churn", daemon=True
        )
        self._thread.start()
        return self

    def join(self, timeout_s: float = 60.0) -> List[Dict[str, Any]]:
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
        return self.applied

    def _run(self) -> None:
        for event in self.events:
            delay = self.start + event.at_s - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            entry = dict(event.as_dict(), applied_at_s=round(
                time.monotonic() - self.start, 3))
            try:
                self._apply(event)
            except Exception as error:
                entry["error"] = str(error)
            self.applied.append(entry)

    def _apply(self, event) -> None:
        if event.action == "add":
            self.fleet.add_shard()
        elif event.action == "kill":
            self.fleet.kill_shard(event.shard, force=True)
        elif event.action == "restart":
            self.fleet.restart_shard(event.shard)
        else:
            self.fleet.remove_shard(event.shard)


def offer(
    scenario: Scenario,
    qps: float,
    url: Optional[str] = None,
    shards: Optional[Sequence[str]] = None,
    fleet=None,
) -> List[RequestRecord]:
    """Offer one rate of the scenario; returns every request's record.

    ``shards`` selects client-side ring routing
    (:class:`~repro.serve.client.ShardedClient`); otherwise ``url``
    names a daemon or router.  Open loop: a request fires at its
    scheduled offset whenever a client thread is free — saturation
    shows up as ``late_s``/rejections rather than silently closing the
    loop.

    A scenario with ``churn`` events needs ``fleet`` — a handle with
    ``kill_shard``/``restart_shard``/``add_shard``/``remove_shard``
    (the subprocess :class:`~repro.serve.fleet.Fleet`); the events are
    applied on schedule while the load is offered.
    """
    planned = plan_requests(scenario, qps)
    if not planned:
        raise LoadGenError(
            f"scenario {scenario.name!r} offers no requests at "
            f"{qps:g} qps over {scenario.duration_s:g}s"
        )
    if scenario.churn and fleet is None:
        raise LoadGenError(
            f"scenario {scenario.name!r} declares churn events; offer "
            "it through a fleet-booting driver (--shard-counts or the "
            "chaos harness), not a bare --url"
        )
    if shards:
        client = ShardedClient(list(shards), timeout_s=scenario.timeout_s)
    else:
        client = ServeClient(url, timeout_s=scenario.timeout_s)
    start = time.monotonic()
    churn: Optional[ChurnDriver] = None
    if scenario.churn and fleet is not None:
        churn = ChurnDriver(fleet, scenario.churn, start).start_thread()
    with ThreadPoolExecutor(
        max_workers=min(scenario.concurrency, len(planned)),
        thread_name_prefix="loadgen",
    ) as pool:
        futures = [
            pool.submit(_drive_one, client, p, start, scenario.timeout_s)
            for p in planned
        ]
        records = [future.result() for future in futures]
    if churn is not None:
        churn.join()
    return records


@dataclass
class RateRun:
    """One (shard_count, qps) measurement."""

    qps: float
    records: List[RequestRecord]
    wall_s: float


@dataclass
class FleetRun:
    """One shard count's full rate sweep plus fleet-side counters."""

    shard_count: int
    rates: List[RateRun] = field(default_factory=list)
    #: Aggregated fleet counters from the router's ``/metrics``.
    counters: Dict[str, float] = field(default_factory=dict)


def _fleet_counters(router_url: str) -> Dict[str, float]:
    try:
        snapshot = ServeClient(router_url).metrics()
    except ServeError:
        return {}
    counters = snapshot.get("counters", {})
    return {
        name: value
        for name, value in counters.items()
        if name.startswith(("serve.jobs.", "serve.store.",
                            "serve.router.", "serve.shard."))
    }


def sweep_shards(
    scenario: Scenario,
    shard_counts: Sequence[int],
    workers: int = 2,
    root: Optional[str] = None,
    progress=None,
) -> List[FleetRun]:
    """Run the scenario's rate sweep at each shard count (real fleets).

    Each shard count gets a fresh fleet (own store, own state dirs
    under ``root``) so counts never bleed across points; pacing is
    wired through the fleet's child environment when the scenario asks
    for an emulated service time.
    """
    from pathlib import Path

    from repro.serve.executor import JOB_HOOK_ENV
    from repro.serve.fleet import Fleet

    extra_env: Dict[str, str] = {}
    if scenario.service_time_ms > 0:
        extra_env[JOB_HOOK_ENV] = "repro.loadgen.pacing:emulate_service_time"
        extra_env[SERVICE_MS_ENV] = f"{scenario.service_time_ms:g}"
    runs: List[FleetRun] = []
    for shard_count in shard_counts:
        fleet_root = (
            str(Path(root) / f"fleet{shard_count}") if root else None
        )
        fleet = Fleet(
            shards=shard_count, root=fleet_root, workers=workers,
            extra_env=extra_env,
            # Churn scenarios get the self-healing pieces: a
            # supervisor to restart killed shards.
            supervise=bool(scenario.churn),
        )
        run = FleetRun(shard_count=shard_count)
        with fleet:
            for qps in scenario.qps:
                if progress is not None:
                    progress(f"{shard_count} shard(s) @ {qps:g} qps")
                start = time.monotonic()
                records = offer(
                    scenario, qps, url=fleet.url,
                    fleet=fleet if scenario.churn else None,
                )
                run.rates.append(
                    RateRun(qps, records, time.monotonic() - start)
                )
            run.counters = _fleet_counters(fleet.url)
        runs.append(run)
    return runs
