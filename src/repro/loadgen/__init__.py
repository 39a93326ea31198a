"""repro.loadgen — declarative load generation for the serve fleet.

Scenario profiles (JSON; YAML when a parser exists) describe the job
mix, duplicate rate, arrival process and rate sweep to offer a serve
target (:mod:`repro.loadgen.scenario`); the launcher executes the
timeline open-loop from a bounded client pool and, for fleet sweeps,
boots real shard processes per point (:mod:`repro.loadgen.launcher`);
the report module folds request records into percentile latency,
throughput, failure-rate and dedup summaries
(:mod:`repro.loadgen.report`).  ``repro-cli loadgen`` is the entry
point; with ``--shard-counts 1,2,4 --json`` it writes a fleet sweep
like the committed ``BENCH_0008.json``.  See ``docs/SERVING.md``.
"""

from repro.loadgen.arrivals import arrival_offsets
from repro.loadgen.launcher import (
    REQUEST_STATES,
    ChurnDriver,
    FleetRun,
    PlannedRequest,
    RateRun,
    RequestRecord,
    offer,
    plan_requests,
    sweep_shards,
)
from repro.loadgen.pacing import SERVICE_MS_ENV, emulate_service_time
from repro.loadgen.report import (
    PERCENTILES,
    percentile,
    render_fleet,
    render_rate,
    summarize_fleet,
    summarize_rate,
)
from repro.loadgen.scenario import (
    ARRIVALS,
    CHURN_ACTIONS,
    ChurnEvent,
    MixEntry,
    Scenario,
    bundled_profile,
    bundled_profiles,
    load_scenario,
    parse_scenario,
    resolve_scenario,
)

__all__ = [
    "ARRIVALS",
    "CHURN_ACTIONS",
    "ChurnDriver",
    "ChurnEvent",
    "FleetRun",
    "MixEntry",
    "PERCENTILES",
    "PlannedRequest",
    "REQUEST_STATES",
    "RateRun",
    "RequestRecord",
    "SERVICE_MS_ENV",
    "Scenario",
    "arrival_offsets",
    "bundled_profile",
    "bundled_profiles",
    "emulate_service_time",
    "load_scenario",
    "offer",
    "parse_scenario",
    "percentile",
    "plan_requests",
    "render_fleet",
    "render_rate",
    "resolve_scenario",
    "summarize_fleet",
    "summarize_rate",
    "sweep_shards",
]
