"""Chaos-harness seams: computation logging for loss accounting.

The fleet chaos tests (``tests/serve/test_chaos.py``) need to know
*how many times each spec
digest was actually computed* across every shard process — that is the
"exactly one computation per digest" half of the zero-loss contract,
and no single process can see it because computations happen in shard
subprocesses.

:func:`log_computation` is a :data:`~repro.serve.executor.JOB_HOOK_ENV`
hook (``REPRO_SERVE_JOB_HOOK=repro.serve.chaos:log_computation``) that
appends the job's spec digest to the file named by
:data:`CHAOS_LOG_ENV`, one digest per line.  The append is a single
``O_APPEND`` write — atomic on POSIX for these short lines — so any
number of worker threads in any number of shard processes share one
log without locks.  After logging it delegates to
:func:`repro.loadgen.pacing.emulate_service_time`, so one hook gives
the chaos tests both the accounting *and* the calibrated service-time
window they need to SIGKILL a shard mid-computation.

A SIGKILL can land *after* a worker logged a digest but *before* the
result reached the store, so the recovery recomputes it: the invariant
the harness asserts is therefore "every digest logged at least once,
at most ``1 + workers-on-killed-shard`` times, never more" — the
excess is bounded by what was in flight at the moment of the kill.
"""

from __future__ import annotations

import os

from repro.loadgen.pacing import emulate_service_time
from repro.serve.jobs import JobSpec, spec_digest

#: Environment variable naming the shared computation-log file.
CHAOS_LOG_ENV = "REPRO_CHAOS_LOG"


def log_computation(spec: JobSpec) -> None:
    """Append the spec's digest to the chaos log, then pace the job."""
    path = os.environ.get(CHAOS_LOG_ENV, "").strip()
    if path:
        line = (spec_digest(spec) + "\n").encode("ascii")
        fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
    emulate_service_time(spec)


def read_log(path: str) -> dict:
    """``{digest: computation_count}`` from a chaos log file."""
    counts: dict = {}
    try:
        with open(path, "r", encoding="ascii") as handle:
            for line in handle:
                digest = line.strip()
                if digest:
                    counts[digest] = counts.get(digest, 0) + 1
    except FileNotFoundError:
        pass
    return counts
