"""Job model for the experiment service: specs, digests, lifecycle.

A *job spec* is the small, canonical description of one experiment run
— experiment id, trace scale, seed.  Two requests with the same spec
are the same computation: :func:`spec_digest` fingerprints the spec
(via :func:`repro.obs.manifest.config_digest`, the digest the run
manifests already use, plus the replay-semantics
:data:`~repro.sim.replay_cache.CACHE_VERSION`), and the queue
deduplicates on that digest.

A :class:`Job` tracks one accepted spec through its lifecycle::

    QUEUED -> RUNNING -> DONE | FAILED
       \\-> CANCELLED

The result of a DONE job is held as canonical JSON *bytes*
(:func:`execute_spec` serialises exactly once), so every caller that
polls the job — including submitters coalesced onto it by dedup —
receives a byte-identical payload.
"""

from __future__ import annotations

import enum
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.errors import ServeError
from repro.obs.manifest import config_digest

#: Spec keys a submission may carry (anything else is rejected with a
#: did-you-mean suggestion).
SPEC_KEYS = ("experiment", "scale", "seed", "priority")

#: Result payload schema (bump on incompatible layout changes).
RESULT_SCHEMA = 1


@dataclass(frozen=True)
class JobSpec:
    """Canonical description of one experiment computation."""

    experiment: str
    scale: float = 1.0
    seed: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (also the digest input)."""
        return {
            "experiment": self.experiment,
            "scale": self.scale,
            "seed": self.seed,
        }


def normalize_spec(mapping: Mapping[str, Any]) -> JobSpec:
    """Validate a request body into a :class:`JobSpec`.

    The service's input boundary: unknown keys, unknown experiment ids
    and out-of-range numbers are rejected with structured
    :class:`~repro.errors.ServeError`\\ s carrying did-you-mean
    suggestions (:mod:`repro.validate.schema`), before anything touches
    the queue.
    """
    from repro.experiments.runner import ALL_EXPERIMENTS
    from repro.validate.schema import (
        coerce_number,
        unknown_key_message,
        validate_keys,
    )

    if not isinstance(mapping, Mapping):
        raise ServeError("job spec must be a JSON object")
    validate_keys(mapping.keys(), SPEC_KEYS, kind="job spec key",
                  error=ServeError)
    experiment = mapping.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        raise ServeError("job spec needs an 'experiment' name")
    if experiment not in ALL_EXPERIMENTS:
        raise ServeError(
            unknown_key_message(
                "experiment", experiment, list(ALL_EXPERIMENTS)
            )
        )
    scale = coerce_number(
        "scale", mapping.get("scale", 1.0), lo=1e-6, hi=1.0, error=ServeError
    )
    seed = mapping.get("seed")
    if seed is not None:
        seed = int(coerce_number("seed", seed, lo=0, integer=True,
                                 error=ServeError))
    return JobSpec(experiment=experiment, scale=float(scale), seed=seed)


def spec_digest(spec: JobSpec) -> str:
    """Stable identity of a spec's computation.

    Includes :data:`~repro.sim.replay_cache.CACHE_VERSION` so digests
    expire together with cached replays and cell checkpoints — the same
    invalidation rule the rest of the persistence stack follows.
    """
    from repro.sim.replay_cache import CACHE_VERSION

    settings = dict(spec.as_dict(), cache_version=CACHE_VERSION)
    return config_digest(settings)


class JobState(enum.Enum):
    """Lifecycle of an accepted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the job will never change state again."""
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


_job_counter = itertools.count(1)
_job_counter_lock = threading.Lock()


def _next_job_id() -> str:
    """A process-unique job id with a random component.

    The random prefix keeps ids unique across daemon restarts — a
    restored journal may carry ids minted by an earlier process, and a
    client must never see one id name two different jobs.
    """
    import uuid

    with _job_counter_lock:
        seq = next(_job_counter)
    return f"job-{uuid.uuid4().hex[:8]}-{seq:04d}"


class Job:
    """One accepted computation and its lifecycle state.

    Thread-safety: state transitions happen under the owning queue's
    lock; readers use :meth:`describe` (which snapshots consistent
    fields) and :meth:`wait` (an event, set exactly once on reaching a
    terminal state).
    """

    def __init__(
        self, spec: JobSpec, digest: str, priority: int = 0,
        job_id: Optional[str] = None,
    ) -> None:
        self.id = job_id if job_id is not None else _next_job_id()
        self.spec = spec
        self.digest = digest
        self.priority = priority
        self.state = JobState.QUEUED
        self.submitted_unix = time.time()
        self.started_unix: Optional[float] = None
        self.finished_unix: Optional[float] = None
        self.error: Optional[str] = None
        self.error_code: Optional[str] = None
        #: Canonical result payload bytes (DONE jobs only).
        self.result_bytes: Optional[bytes] = None
        self.submissions = 1

    # -- transitions (call under the queue lock) --------------------------

    def mark_running(self) -> None:
        self.state = JobState.RUNNING
        self.started_unix = time.time()

    def mark_done(self, result_bytes: bytes) -> None:
        self.result_bytes = result_bytes
        self.state = JobState.DONE
        self.finished_unix = time.time()

    def mark_failed(self, error: Exception) -> None:
        self.error = str(error)
        self.error_code = getattr(error, "code", type(error).__name__)
        self.state = JobState.FAILED
        self.finished_unix = time.time()

    def mark_cancelled(self) -> None:
        self.state = JobState.CANCELLED
        self.finished_unix = time.time()

    # -- inspection -------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """JSON-ready status record (what ``GET /jobs/<id>`` returns)."""
        return {
            "id": self.id,
            "digest": self.digest,
            "state": self.state.value,
            "spec": self.spec.as_dict(),
            "priority": self.priority,
            "submissions": self.submissions,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "error": self.error,
            "error_code": self.error_code,
        }


def execute_spec(
    spec: JobSpec, state_dir: Optional[str] = None
) -> bytes:
    """Run one spec through the experiment engine; returns payload bytes.

    The computation goes through the same
    :class:`~repro.experiments.common.ExperimentContext` +
    :func:`~repro.experiments.runner.run_experiment` path as
    ``repro-experiments``, so a served result renders identically to a
    CLI run of the same spec.  When ``state_dir`` is given the run is
    checkpointed per cell (``state_dir/cells/<digest>/``,
    :mod:`repro.sim.checkpoint`), so a crashed or re-submitted job
    resumes instead of recomputing — on top of the replay cache, which
    already shares replay work across jobs and processes.

    The payload is serialised to canonical JSON exactly once; callers
    store and return the bytes untouched so duplicate submitters receive
    byte-identical responses.
    """
    from pathlib import Path

    from repro.experiments.common import ExperimentContext
    from repro.experiments.runner import run_experiment
    from repro.sim.checkpoint import CheckpointJournal
    from repro.workloads.generators import DEFAULT_SEED

    digest = spec_digest(spec)
    seed = DEFAULT_SEED if spec.seed is None else spec.seed
    checkpoint = None
    if state_dir is not None:
        checkpoint = CheckpointJournal(Path(state_dir) / "cells" / digest)
    try:
        context = ExperimentContext(
            scale=spec.scale, seed=seed, checkpoint=checkpoint
        )
        title, render, _ = run_experiment(spec.experiment, context)
    finally:
        if checkpoint is not None:
            checkpoint.close()
    payload = {
        "schema": RESULT_SCHEMA,
        "experiment": spec.experiment,
        "title": title,
        "scale": spec.scale,
        "seed": seed,
        "digest": digest,
        "render": render,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
