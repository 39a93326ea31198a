"""Emulated service time: the load harness's pacing hook.

Point ``REPRO_SERVE_JOB_HOOK`` at
``repro.loadgen.pacing:emulate_service_time`` and set
``REPRO_LOADGEN_SERVICE_MS`` and every serve job sleeps that long
before executing — the *emulated backend* mode of llm-d-benchmark
style harnesses, here riding the executor's per-job hook seam
(:data:`~repro.serve.executor.JOB_HOOK_ENV`).

Why it exists: the scaling question a fleet answers is "does the
*serving layer* — routing, queueing, dedup, the store — scale with
shard count?", and on a small host (CI runs on one core) a CPU-bound
job makes that unmeasurable: four shards contending for one core show
flat throughput no matter how good the serving layer is.  A calibrated
sleep releases the GIL and burns no CPU, so each shard's capacity is
``workers / service_time`` independent of neighbours — shard-count
scaling of the serving layer becomes observable and honest, while the
real per-job CPU cost (about a millisecond for the scaled-down
``table2`` spec used by the bundled profiles) stays far below one
core's budget even at the widest fleet.

The committed ``BENCH_0008.json`` records both modes: a paced scenario
for the scaling curve and an unpaced (real-compute) scenario, each
tagged with the host fingerprint so a one-core container's numbers are
read as such.  ``repro-cli loadgen scaling --shard-counts 1,2,4`` (or
``compute``) reruns either sweep.
"""

from __future__ import annotations

import os
import time

#: Milliseconds each job sleeps before executing (0/unset = no pacing).
SERVICE_MS_ENV = "REPRO_LOADGEN_SERVICE_MS"


def emulate_service_time(spec) -> None:
    """``REPRO_SERVE_JOB_HOOK`` target: sleep the configured service time."""
    raw = os.environ.get(SERVICE_MS_ENV, "").strip()
    if not raw:
        return
    try:
        ms = float(raw)
    except ValueError:
        return
    if ms > 0:
        time.sleep(ms / 1000.0)
