"""Bounded worker pool executing queued jobs in daemon threads.

Workers pull from the :class:`~repro.serve.queue.JobQueue` and run each
job through :func:`~repro.serve.jobs.execute_spec` under the sweep
layer's :class:`~repro.sim.parallel.FaultPolicy` retry discipline
(:func:`~repro.sim.parallel.call_with_retries`): deterministic library
errors fail the job immediately — rerunning them reproduces the
failure — while anything else is treated as transient and retried with
exponential backoff before the job is marked FAILED.  A job's sweep
cells run serially and retry their own transient failures under the
same policy (:func:`~repro.sim.parallel.run_in_process`); a cell that
exhausts its retries fails the job as a typed ``PARTIAL`` error.

Threads (not processes) are the right pool here: one job already
amortises its heavy lifting through numpy replays, the on-disk replay
cache and per-job cell checkpoints, and results must land in the shared
queue under one lock.  The ``workers`` argument (``serve --workers``)
bounds concurrency; the default of 2 keeps a small host responsive
while still overlapping a long job with short ones.

With a shared :class:`~repro.serve.store.FileResultStore` attached, a
worker probes the store before executing — a hit (another shard, or a
previous life of this one, already computed the digest) finishes the
job with the stored canonical bytes, which is the fleet's
cross-instance dedup — and publishes every computed payload back for
the rest of the fleet.

``REPRO_SERVE_JOB_HOOK`` (``module:function``, called with the job
spec just before execution through
:func:`~repro.sim.parallel.fire_hook`) is the service-level twin of
the sweep layer's ``REPRO_FAULT_HOOK`` seam: the load harness uses it to emulate
calibrated service times (:mod:`repro.loadgen.pacing`) and the fault
tests to stall or fail jobs at a deterministic point.  No-op when
unset.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from repro.errors import ExperimentError
from repro.obs import metrics as _metrics
from repro.serve.jobs import JobSpec, execute_spec
from repro.serve.queue import JobQueue
from repro.serve.store import FileResultStore
from repro.sim.parallel import FaultPolicy, call_with_retries, fire_hook

#: ``module:function`` hook fired with the spec before each execution.
JOB_HOOK_ENV = "REPRO_SERVE_JOB_HOOK"

#: Worker threads when the caller names no count.
DEFAULT_WORKERS = 2

#: How long an idle worker waits on the queue before re-checking stop.
_POLL_S = 0.1


class WorkerPool:
    """N daemon threads draining a :class:`JobQueue`."""

    def __init__(
        self,
        queue: JobQueue,
        workers: int = DEFAULT_WORKERS,
        policy: Optional[FaultPolicy] = None,
        state_dir: Optional[str] = None,
        store: Optional[FileResultStore] = None,
    ) -> None:
        if workers < 1:
            raise ExperimentError("serve workers must be >= 1")
        self.queue = queue
        self.workers = workers
        self.policy = policy if policy is not None else FaultPolicy.from_env()
        self.state_dir = state_dir
        self.store = store
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._run, name=f"serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        _metrics.gauge_set("serve.workers", self.workers)

    def stop(self, wait: bool = True) -> None:
        """Ask workers to exit; with ``wait``, block until in-flight
        jobs finish (queued jobs are left queued — the drain path
        journals them)."""
        self._stop.set()
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads = []

    def _run(self) -> None:
        while not self._stop.is_set():
            job = self.queue.get(timeout=_POLL_S)
            if job is None:
                continue
            if self.store is None:
                self._run_one(job)
                continue
            # Pin the digest for the whole dequeue-to-finish window so
            # the store's LRU cap can never evict this payload while
            # it is in flight (probe hit included — the bytes must
            # survive until the job record owns them).
            self.store.pin(job.digest)
            try:
                stored = self.store.get(job.digest)
                if stored is not None:
                    self.queue.finish(job, stored, computed=False)
                    continue
                self._run_one(job)
            finally:
                self.store.unpin(job.digest)

    def _run_one(self, job) -> None:
        start = time.perf_counter()
        try:
            result = call_with_retries(
                lambda: self._execute(job.spec),
                self.policy,
                retry_counter="serve.retries",
            )
        except Exception as error:
            self.queue.fail(job, error)
        else:
            self.queue.finish(job, result)
            if self.store is not None:
                self.store.put(job.digest, result)
            _metrics.timer_record(
                "serve.job", time.perf_counter() - start
            )

    def _execute(self, spec: JobSpec) -> bytes:
        fire_hook(JOB_HOOK_ENV, spec)
        return execute_spec(spec, self.state_dir)
