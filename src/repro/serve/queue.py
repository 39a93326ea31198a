"""Priority job queue with digest deduplication and backpressure.

The queue is the service's single point of truth: every accepted job
lives in :attr:`JobQueue.jobs` from submission to terminal state, and
every state transition happens under one lock, so the HTTP handlers,
the worker pool and the drain path always observe a consistent picture.

Deduplication
-------------

Submissions are keyed by :func:`~repro.serve.jobs.spec_digest`.  While
a job for a digest is *live* (queued, running or done), submitting the
same digest coalesces onto it — no second computation is enqueued, the
existing job (and eventually its byte-identical result payload) is
returned to every caller, and ``serve.jobs.deduped`` counts the
coalesced submission.  A failed or cancelled job releases its digest:
the next submission computes afresh.

Backpressure
------------

``max_queued`` bounds the number of *queued* (not yet running) jobs;
beyond it :meth:`submit` raises
:class:`~repro.errors.QueueFullError`, which the HTTP layer renders as
429 with a ``Retry-After`` header.  Deduplicated submissions never
count against the bound — they add no work.

Dispatch order is priority-descending, FIFO within a priority
(a classic ``heapq`` over ``(-priority, seq)``).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import QueueFullError, ServeError
from repro.obs import metrics as _metrics
from repro.serve.jobs import Job, JobSpec, JobState, spec_digest

#: Default bound on queued (not yet running) jobs.
DEFAULT_MAX_QUEUED = 64

#: Default ``Retry-After`` seconds suggested on backpressure.
DEFAULT_RETRY_AFTER_S = 1.0


class JobQueue:
    """Bounded, deduplicating priority queue of :class:`Job`\\ s."""

    def __init__(
        self,
        max_queued: int = DEFAULT_MAX_QUEUED,
        retry_after_s: float = DEFAULT_RETRY_AFTER_S,
    ) -> None:
        if max_queued < 1:
            raise ServeError("queue bound must be >= 1")
        self.max_queued = max_queued
        self.retry_after_s = retry_after_s
        #: Every job ever accepted by this queue instance, by id.
        self.jobs: Dict[str, Job] = {}
        self._by_digest: Dict[str, Job] = {}
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        #: Notified on *every* job state transition — the event/condition
        #: seam long-poll waiters (and tests) coordinate on instead of
        #: sleep loops.
        self._changed = threading.Condition(self._lock)
        self._rejecting: Optional[str] = None
        self._dispatching = True

    # -- submission -------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        priority: int = 0,
        job_id: Optional[str] = None,
        enforce_bound: bool = True,
    ) -> Tuple[Job, bool]:
        """Accept (or coalesce) one spec; returns ``(job, deduped)``.

        ``job_id`` pins the id (journal restore); ``enforce_bound=False``
        bypasses backpressure (restore must never drop an already
        accepted job).  Raises :class:`~repro.errors.QueueFullError` on
        backpressure and :class:`~repro.errors.ServeError` (503) when
        the queue is draining.
        """
        digest = spec_digest(spec)
        with self._lock:
            if self._rejecting is not None:
                raise ServeError(self._rejecting, http_status=503)
            existing = self._by_digest.get(digest)
            if existing is not None and existing.state not in (
                JobState.FAILED, JobState.CANCELLED
            ):
                existing.submissions += 1
                _metrics.counter_add("serve.jobs.deduped")
                return existing, True
            if enforce_bound and self._queued_count() >= self.max_queued:
                _metrics.counter_add("serve.jobs.rejected")
                raise QueueFullError(
                    f"queue full ({self.max_queued} jobs queued); "
                    f"retry in {self.retry_after_s:g}s",
                    retry_after_s=self.retry_after_s,
                )
            job = Job(spec, digest, priority=priority, job_id=job_id)
            self.jobs[job.id] = job
            self._by_digest[digest] = job
            heapq.heappush(self._heap, (-priority, next(self._seq), job))
            _metrics.counter_add("serve.jobs.submitted")
            self._gauge_depth()
            self._available.notify()
            self._changed.notify_all()
            return job, False

    # -- dispatch (worker side) -------------------------------------------

    def get(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the highest-priority queued job and mark it RUNNING.

        Returns None on timeout or while dispatch is paused (drain).
        Cancelled jobs sitting in the heap are skipped lazily.
        """
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        with self._available:
            while True:
                if self._dispatching:
                    while self._heap:
                        _, _, job = heapq.heappop(self._heap)
                        if job.state is JobState.QUEUED:
                            job.mark_running()
                            self._gauge_depth()
                            self._changed.notify_all()
                            return job
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._available.wait(remaining)

    def finish(
        self, job: Job, result_bytes: bytes, computed: bool = True
    ) -> None:
        """Record a completed job (exactly once per job).

        ``computed=False`` marks a job satisfied from the shared result
        store rather than executed here: it counts in
        ``serve.jobs.store_satisfied`` instead of ``serve.jobs.executed``
        so "one computation per digest" stays measurable fleet-wide.
        """
        with self._lock:
            job.mark_done(result_bytes)
            _metrics.counter_add(
                "serve.jobs.executed" if computed
                else "serve.jobs.store_satisfied"
            )
            self._gauge_depth()
            self._changed.notify_all()

    def fail(self, job: Job, error: Exception) -> None:
        """Record a failed computation; releases the digest for retry."""
        with self._lock:
            job.mark_failed(error)
            if self._by_digest.get(job.digest) is job:
                del self._by_digest[job.digest]
            _metrics.counter_add("serve.jobs.failed")
            self._gauge_depth()
            self._changed.notify_all()

    # -- control ----------------------------------------------------------

    def cancel(self, job_id: str) -> Job:
        """Cancel a still-queued job; raises 409 once it is running."""
        with self._lock:
            job = self._job(job_id)
            if job.state is not JobState.QUEUED:
                raise ServeError(
                    f"job {job_id} is {job.state.value}; only queued jobs "
                    "can be cancelled",
                    http_status=409,
                )
            job.mark_cancelled()
            if self._by_digest.get(job.digest) is job:
                del self._by_digest[job.digest]
            _metrics.counter_add("serve.jobs.cancelled")
            self._gauge_depth()
            self._changed.notify_all()
            return job

    def reject_submissions(self, message: str) -> None:
        """Refuse new submissions from now on (drain; rendered as 503)."""
        with self._lock:
            self._rejecting = message

    def pause_dispatch(self) -> None:
        """Stop handing queued jobs to workers (they stay QUEUED)."""
        with self._available:
            self._dispatching = False
            self._available.notify_all()

    def resume_dispatch(self) -> None:
        """Resume handing queued jobs to workers after pause_dispatch."""
        with self._available:
            self._dispatching = True
            self._available.notify_all()

    # -- inspection -------------------------------------------------------

    def job(self, job_id: str) -> Job:
        """Look a job up by id; raises 404 on an unknown id."""
        with self._lock:
            return self._job(job_id)

    def wait_for_state(
        self,
        job_id: str,
        target: str,
        timeout: Optional[float] = None,
    ) -> Job:
        """Block until a job reaches ``target`` (or any terminal state).

        ``target`` is ``"running"`` (satisfied by RUNNING *or* anything
        terminal — a store-satisfied job can go straight to DONE) or
        ``"terminal"``.  Returns the job once satisfied, or at timeout in
        whatever state it is then — the caller reads ``job.state``.  This
        is the long-poll seam behind ``GET /jobs/<id>?wait=...``: waiters
        park on a condition notified by every transition, no sleep
        polling anywhere.
        """
        import time

        if target not in ("running", "terminal"):
            raise ServeError(
                f"unknown wait target {target!r}; use 'running' or "
                "'terminal'"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._changed:
            while True:
                job = self._job(job_id)
                if job.state.terminal or (
                    target == "running" and job.state is JobState.RUNNING
                ):
                    return job
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return job
                self._changed.wait(remaining)

    def _job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job id {job_id!r}", http_status=404)
        return job

    def queued_jobs(self) -> List[Job]:
        """Snapshot of QUEUED jobs in dispatch order (drain journaling)."""
        with self._lock:
            return [
                job
                for _, _, job in sorted(self._heap)
                if job.state is JobState.QUEUED
            ]

    def counts(self) -> Dict[str, int]:
        """State histogram over every job this queue has accepted."""
        with self._lock:
            out = {state.value: 0 for state in JobState}
            for job in self.jobs.values():
                out[job.state.value] += 1
            return out

    def describe(self) -> List[Dict[str, Any]]:
        """Status records for every job, newest submission first."""
        with self._lock:
            jobs = sorted(
                self.jobs.values(), key=lambda j: j.submitted_unix,
                reverse=True,
            )
            return [job.describe() for job in jobs]

    def _queued_count(self) -> int:
        return sum(
            1 for job in self.jobs.values() if job.state is JobState.QUEUED
        )

    def _gauge_depth(self) -> None:
        _metrics.gauge_set("serve.queue.depth", self._queued_count())
