"""Serve job hooks for the fleet tests: the computation ledger.

The fleet chaos tests (``tests/serve/test_chaos.py``) need to know
*how many times each spec digest was actually computed* across every
shard process — that is the "exactly one computation per digest" half
of the zero-loss contract, and no single process can see it because
computations happen in shard subprocesses.

:func:`log_computation` is a ``REPRO_SERVE_JOB_HOOK`` target
(``REPRO_SERVE_JOB_HOOK=tests.serve.hooks:log_computation``, fired
through :func:`repro.sim.parallel.fire_hook`) that appends the job's
spec digest to the file named by :data:`LOG_ENV`, one digest per line.
The append is a single ``O_APPEND`` write — atomic on POSIX for these
short lines — so any number of worker threads in any number of shard
processes share one log without locks.  After logging it delegates to
:func:`repro.loadgen.pacing.emulate_service_time`, so one hook gives
the chaos tests both the accounting *and* the calibrated service-time
window they need to SIGKILL a shard mid-computation.  Shard
subprocesses import this module by name, so their ``PYTHONPATH`` must
hold :data:`REPO_ROOT`.

A SIGKILL can land *after* a worker logged a digest but *before* the
result reached the store, so the recovery recomputes it: the invariant
the harness asserts is therefore "every digest logged at least once,
at most ``1 + workers-on-killed-shard`` times, never more" — the
excess is bounded by what was in flight at the moment of the kill.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.loadgen.pacing import emulate_service_time
from repro.serve.jobs import JobSpec, spec_digest

#: Environment variable naming the shared computation-log file.
LOG_ENV = "REPRO_CHAOS_LOG"

#: The directory that makes ``tests.serve.hooks`` importable.
REPO_ROOT = Path(__file__).resolve().parents[2]


def log_computation(spec: JobSpec) -> None:
    """Append the spec's digest to the ledger, then pace the job."""
    path = os.environ.get(LOG_ENV, "").strip()
    if path:
        line = (spec_digest(spec) + "\n").encode("ascii")
        fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
    emulate_service_time(spec)


def read_log(path: str) -> dict:
    """``{digest: computation_count}`` from a ledger file."""
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
