"""Fault-tolerant execution of sweep cells: a process pool and one
in-process loop, under one retry discipline.

The experiment suite is embarrassingly parallel at the granularity of
one cell: a workload under one configuration (or core count) replayed
against a set of LLC models.
:meth:`ExperimentContext.run_cells
<repro.experiments.common.ExperimentContext.run_cells>` is the one
place that chooses between running cells serially in-process
(:func:`run_in_process`) and fanning them out over a
:class:`~concurrent.futures.ProcessPoolExecutor` (:func:`run_cells`).

Workers receive only small, picklable :class:`SweepCell` keys —
(workload, seed, length, threads, architecture, model names) — and run
each one exactly as the serial path does: :func:`run_cell` hands the
cell to a fresh :class:`~repro.experiments.common.ExperimentContext`,
whose ``run_cell`` regenerates the trace from the seeded key
(:mod:`repro.workloads.generators`), builds the session, fires the
fault hook and opens the ``experiments.cell`` span.  No trace or stream
crosses the process boundary; only the compact
:class:`~repro.sim.results.SimResult` objects come back, and the shared
on-disk replay cache (:mod:`repro.sim.replay_cache`) lets the parent —
and later runs — reuse whatever the workers replayed.

``jobs`` semantics everywhere in the experiments layer: ``1`` (default)
runs serially in-process, ``N > 1`` uses N worker processes, and ``0``
means "one per CPU" (:func:`default_jobs`).  :func:`run_cells` itself
always uses a pool, of ``min(jobs, cells)`` workers.

Fault tolerance
---------------

Long sweeps die in three characteristic ways, and both paths survive
what they can (policy knobs in :class:`FaultPolicy`, environment
defaults below):

- *A cell raises or its worker is killed.*  Non-library exceptions are
  treated as transient and the cell retries with exponential backoff
  (``max_retries``), in a worker or in-process alike
  (:func:`call_with_retries`); a killed worker breaks the whole pool
  (``BrokenProcessPool``), which is recovered by respawning the pool
  once and, if it breaks again, finishing the surviving cells through
  :func:`run_in_process`.  Deterministic library errors
  (:class:`~repro.errors.ReproError`) fail fast — the cell would fail
  identically on every retry.
- *A worker hangs.*  ``cell_timeout_s`` bounds the wait per collected
  pool cell (``REPRO_CELL_TIMEOUT``); on timeout the pool — which
  still owns the hung process — is abandoned and force-killed, and the
  timed-out cell is charged an attempt.  An in-process cell cannot be
  killed, so the timeout does not bound it.
- *Some cells are unrecoverable.*  The sweep never discards finished
  work: a failed cell is recorded and the remaining cells still run,
  then :class:`~repro.errors.PartialResultError` carries every
  completed :class:`~repro.sim.results.SimResult`; the result callback
  (the checkpoint journal's hook, :mod:`repro.sim.checkpoint`) has
  already been invoked for each of them in completion order.

Environment defaults: ``REPRO_CELL_TIMEOUT`` (seconds, unset = no
timeout) and ``REPRO_CELL_RETRIES`` (default 2).  Both are checked when
the policy is built: a timeout must be finite and > 0, a retry count a
whole number >= 0, and anything else is an
:class:`~repro.errors.ExperimentError` naming the setting.
``REPRO_FAULT_HOOK`` names a ``module:function`` invoked with each cell
before it runs (:func:`fire_hook`) — the fault injection point the
``tests/faults`` harness uses to kill or delay workers deliberately;
leave it unset in production.

Invariants
----------

- Results come back in input order regardless of completion order, so a
  parallel run is *output-identical* to a serial one — and, via the
  checkpoint journal, a resumed run is output-identical to an
  uninterrupted one (pinned by ``test_pool_renders_match_the_snapshots``
  in ``tests/golden/test_golden.py``, ``test_parallel_matches_serial``
  in ``tests/sim/test_parallel.py`` and
  ``test_sigkill_mid_run_then_resume_matches_uninterrupted`` in
  ``tests/faults/test_kill_resume.py``).
- Only :class:`SweepCell` keys cross the boundary outbound and only
  :class:`~repro.sim.results.SimResult` objects (plus, when metrics are
  on, a plain-dict metrics snapshot) come back — never traces or
  streams.
- A worker computes its cell with the serial path's own executor,
  ``ExperimentContext.run_cell``, from the resolved
  ``(workload, seed, n_accesses, n_threads)`` key; generation is fully
  seeded, so the trace is bit-identical to the serial path's.
- Retries and pool respawns never double-report a cell: a result is
  collected (and ``on_result`` fired) exactly once per cell.

When run metrics are enabled (:mod:`repro.obs`) each worker collects
into its own registry — the ``experiments.cells`` counter, the
``experiments.cell`` span and the instrumented layers' counters, plus a
``parallel.worker.<pid>.cell`` timer per cell — and returns a snapshot
that the parent merges, so a pool run counts its cells as a serial run
does and per-worker utilization survives the pool boundary.  Fault
handling is counted too: ``parallel.retries``, ``parallel.timeouts``,
``parallel.worker_failures``, ``parallel.pool_respawns`` and
``parallel.serial_fallback_cells``.  A
:class:`~repro.obs.progress.ProgressLine` tracks cell completions on
interactive terminals.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError, PartialResultError, ReproError
from repro.obs import metrics as _metrics
from repro.obs.progress import ProgressLine
from repro.sim.config import ArchitectureConfig
from repro.sim.results import SimResult

#: Per-cell timeout in seconds (unset/empty = wait forever).
TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"

#: Retries per cell for transient failures (default 2).
RETRIES_ENV = "REPRO_CELL_RETRIES"

#: ``module:function`` fault-injection hook fired before every cell.
FAULT_HOOK_ENV = "REPRO_FAULT_HOOK"

#: Callback fired once per completed cell: ``(index, cell, results)``.
OnResult = Callable[[int, "SweepCell", Dict[str, SimResult]], None]


def default_jobs() -> int:
    """Worker count for ``--jobs 0``: one per CPU."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value (None -> 1, 0 -> cpu count)."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ExperimentError("jobs must be >= 0")
    return jobs if jobs > 0 else default_jobs()


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ExperimentError(f"{name} must be a number, got {raw!r}")


@dataclass(frozen=True)
class FaultPolicy:
    """How :func:`run_cells` reacts to worker failures.

    ``cell_timeout_s`` of None waits forever; otherwise it must be a
    finite number of seconds > 0.  ``max_retries`` counts *re*-attempts
    (2 means up to three executions of one cell) and must be a whole
    number >= 0.  A setting outside those ranges raises
    :class:`~repro.errors.ExperimentError` naming it when the policy is
    built.  Backoff doubles per attempt (``backoff_s * 2**(attempt-1)``).
    A broken or abandoned pool is rebuilt once; if the rebuilt pool
    goes too, the surviving cells finish in-process.  The timeout
    bounds only pool cells: an in-process cell cannot be killed.
    """

    cell_timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_s: float = 0.1

    def __post_init__(self) -> None:
        timeout = self.cell_timeout_s
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ExperimentError(
                f"cell timeout (--cell-timeout / {TIMEOUT_ENV}) must be a "
                f"finite number of seconds > 0, got {timeout!r}"
            )
        retries = self.max_retries
        if not (float(retries).is_integer() and retries >= 0):
            raise ExperimentError(
                f"cell retries (--cell-retries / {RETRIES_ENV}) must be a "
                f"whole number >= 0, got {retries!r}"
            )
        # Environment values arrive as floats; the count stays an int.
        object.__setattr__(self, "max_retries", int(retries))

    @classmethod
    def from_env(
        cls,
        cell_timeout_s: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> "FaultPolicy":
        """Build a policy from the environment, with optional overrides
        (CLI flags win over env vars win over defaults)."""
        if cell_timeout_s is None:
            cell_timeout_s = _env_float(TIMEOUT_ENV)
        if max_retries is None:
            max_retries = _env_float(RETRIES_ENV)
        return cls(
            cell_timeout_s=cell_timeout_s,
            max_retries=2 if max_retries is None else max_retries,
        )


@dataclass(frozen=True)
class SweepCell:
    """One unit of parallel work: a workload replayed against models.

    The cell is a pure *key*: everything a worker needs to regenerate
    the trace deterministically and run the sweep.  ``n_accesses`` /
    ``n_threads`` of None use the profile's defaults; ``arch`` of None
    uses the paper's Gainestown.
    """

    workload: str
    configuration: str
    model_names: Tuple[str, ...]
    seed: int
    n_accesses: Optional[int] = None
    n_threads: Optional[int] = None
    arch: Optional[ArchitectureConfig] = None


def resolve_model(name: str, configuration: str):
    """Model lookup treating ``"SRAM"`` as the baseline of the
    configuration (mirrors the experiment drivers' convention)."""
    from repro.nvsim.published import published_model, sram_baseline

    if name == "SRAM":
        return sram_baseline(configuration)
    return published_model(name, configuration)


def fire_hook(env_name: str, arg: Any) -> None:
    """Call the ``module:function`` hook named by ``env_name`` with
    ``arg``; a no-op when the variable is unset.

    The fault-injection seams: ``REPRO_FAULT_HOOK`` fires with each
    sweep cell (``ExperimentContext.run_cell``) and
    ``REPRO_SERVE_JOB_HOOK`` with each serve job spec
    (:class:`~repro.serve.executor.WorkerPool`), so the test harness
    can kill, delay or fail work at a deterministic point.
    """
    spec = os.environ.get(env_name)
    if not spec:
        return
    import importlib

    module_name, _, func_name = spec.partition(":")
    getattr(importlib.import_module(module_name), func_name)(arg)


def run_cell(cell: SweepCell) -> Dict[str, SimResult]:
    """Execute one pool cell, in a worker (or in-process once the pool
    is out of respawns), with the serial path's own executor.

    A fresh :class:`~repro.experiments.common.ExperimentContext` per
    cell regenerates the trace from the cell's seeded key and runs the
    cell's models on one shared session; results are keyed by model
    name.
    """
    from repro.experiments.common import ExperimentContext

    return ExperimentContext(seed=cell.seed).run_cell(cell)


def _run_cell_observed(cell: SweepCell) -> Tuple[Dict[str, SimResult], Dict[str, Any]]:
    """Worker wrapper: run one cell under a fresh metrics registry and
    return ``(results, snapshot)`` so the parent can merge what the
    instrumented layers recorded on this side of the pool boundary."""
    with _metrics.scoped_registry() as registry:
        start = time.perf_counter()
        result = run_cell(cell)
        elapsed = time.perf_counter() - start
        registry.timer_record(f"parallel.worker.{os.getpid()}.cell", elapsed)
        registry.counter_add("parallel.cells")
    return result, registry.snapshot()


def _backoff(policy: FaultPolicy, attempt: int) -> None:
    delay = policy.backoff_s * (2 ** max(0, attempt - 1))
    if delay > 0:
        time.sleep(delay)


def call_with_retries(
    fn: Callable[[], Any],
    policy: FaultPolicy,
    retry_counter: str = "parallel.retries",
) -> Any:
    """Call ``fn`` with the policy's transient-retry loop.

    The retry discipline of an in-process sweep cell, exposed for any
    caller with the same failure taxonomy (the experiment service's
    worker threads use it per job): deterministic library failures
    (:class:`~repro.errors.ReproError`) fail fast — a retry would
    reproduce them — while any other exception is treated as transient
    and retried up to ``policy.max_retries`` times with exponential
    backoff, counting each retry in ``retry_counter``.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except ReproError:
            raise  # deterministic: retrying reproduces the same failure
        except Exception:
            attempt += 1
            if attempt > policy.max_retries:
                raise
            _metrics.counter_add(retry_counter)
            _backoff(policy, attempt)


def _describe(error: Exception) -> str:
    """A failed cell's message: a library error speaks for itself, any
    other exception is prefixed with its type."""
    if isinstance(error, ReproError):
        return str(error)
    return f"{type(error).__name__}: {error}"


def run_in_process(
    cells: Iterable[Tuple[int, SweepCell]],
    execute: Callable[[SweepCell], Any],
    policy: FaultPolicy,
    collect: Callable[[int, Any], None],
) -> Dict[int, str]:
    """Run ``(index, cell)`` pairs one after another in this process.

    The serial sweep (``execute`` is the context's own ``run_cell``)
    and the pool's last resort after its respawn is spent both run
    here.  Each cell runs under :func:`call_with_retries`; a completed
    cell goes to ``collect(index, value)``, and a cell that still fails
    is recorded while the remaining cells run on.  Returns
    ``{index: message}`` for the failed cells.
    """
    failures: Dict[int, str] = {}
    for index, cell in cells:
        try:
            value = call_with_retries(partial(execute, cell), policy)
        except Exception as error:
            failures[index] = _describe(error)
        else:
            collect(index, value)
    return failures


def raise_for_failures(
    failures: Dict[int, str], completed: Dict[int, Any], total: int
) -> None:
    """Raise :class:`~repro.errors.PartialResultError` carrying every
    completed cell when any of ``total`` cells failed."""
    if failures:
        raise PartialResultError(
            f"{len(failures)} of {total} cells failed "
            f"({len(completed)} completed): "
            + "; ".join(failures[i] for i in sorted(failures)[:3]),
            completed=completed,
            failures=failures,
        )


class _PoolFailure(Exception):
    """Internal: the current pool must be abandoned (broken or hung)."""


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting, force-killing workers.

    Workers are killed *before* ``shutdown`` is requested: the
    executor's manager thread then sees their sentinels fire, declares
    the pool broken, and terminates itself.  Requesting shutdown first
    can leave that thread blocked forever on a result from the
    already-dead hung worker, which in turn stalls interpreter exit
    (``concurrent.futures`` joins manager threads atexit)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    wakeup = getattr(pool, "_executor_manager_thread_wakeup", None)
    if wakeup is not None:  # belt-and-braces: re-check broken state
        try:
            wakeup.wakeup()
        except Exception:
            pass


def _drain_pool(
    pool: ProcessPoolExecutor,
    worker: Callable,
    pending: Dict[int, SweepCell],
    failures: Dict[int, str],
    attempts: Dict[int, int],
    policy: FaultPolicy,
    collect: Callable[[int, Any], None],
) -> None:
    """Submit every pending cell and collect what completes.

    Mutates ``pending``/``failures`` in place.  Transiently failed cells
    stay in ``pending`` (the caller loops and resubmits); raises
    :class:`_PoolFailure` when the pool itself must go.
    """
    try:
        futures = {
            index: pool.submit(worker, cell)
            for index, cell in sorted(pending.items())
        }
    except Exception:
        raise _PoolFailure("submit failed: pool already broken")
    for index, future in futures.items():
        cell = pending[index]
        try:
            value = future.result(timeout=policy.cell_timeout_s)
        except FuturesTimeoutError:
            attempts[index] += 1
            _metrics.counter_add("parallel.timeouts")
            if attempts[index] > policy.max_retries:
                failures[index] = (
                    f"cell {cell.workload}/{cell.configuration} timed out "
                    f"after {policy.cell_timeout_s:g}s "
                    f"({attempts[index]} attempts)"
                )
                del pending[index]
            raise _PoolFailure("cell timeout: abandoning hung pool")
        except BrokenProcessPool:
            attempts[index] += 1
            _metrics.counter_add("parallel.worker_failures")
            if attempts[index] > policy.max_retries:
                failures[index] = (
                    f"cell {cell.workload}/{cell.configuration} lost its "
                    f"worker {attempts[index]} times (pool broken)"
                )
                del pending[index]
            raise _PoolFailure("worker died: pool broken")
        except ReproError as error:
            # Deterministic library failure: every retry would reproduce it.
            failures[index] = _describe(error)
            del pending[index]
        except Exception as error:
            attempts[index] += 1
            if attempts[index] > policy.max_retries:
                failures[index] = _describe(error)
                del pending[index]
            else:
                _metrics.counter_add("parallel.retries")
                _backoff(policy, attempts[index])
        else:
            del pending[index]
            collect(index, value)


def run_cells(
    cells: Sequence[SweepCell],
    jobs: Optional[int] = None,
    policy: Optional[FaultPolicy] = None,
    on_result: Optional[OnResult] = None,
) -> List[Dict[str, SimResult]]:
    """Run cells across a pool of ``min(jobs, len(cells))`` worker
    processes, fault-tolerantly (``jobs`` as :func:`resolve_jobs`).

    Results are returned in input order regardless of completion order,
    so parallel runs are output-identical to serial ones.  ``policy``
    (default: :meth:`FaultPolicy.from_env`) governs timeout, retry and
    pool recovery; ``on_result`` fires once per completed cell in
    completion order (the checkpoint journal's hook).  When some cells
    are unrecoverable the completed ones are never discarded: a
    :class:`~repro.errors.PartialResultError` carries them all.
    """
    cells = list(cells)
    if not cells:
        return []
    jobs = resolve_jobs(jobs)
    if policy is None:
        policy = FaultPolicy.from_env()
    observe = _metrics.enabled()
    worker = _run_cell_observed if observe else run_cell
    pending: Dict[int, SweepCell] = dict(enumerate(cells))
    results: Dict[int, Dict[str, SimResult]] = {}
    failures: Dict[int, str] = {}
    attempts: Dict[int, int] = {index: 0 for index in pending}

    with ProgressLine(total=len(cells), label="cells") as progress:

        def collect(index: int, value: Any) -> None:
            if observe:
                value, snapshot = value
                _metrics.merge_snapshot(snapshot)
            results[index] = value
            if on_result is not None:
                on_result(index, cells[index], value)
            progress.tick()

        respawned = False
        pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=min(jobs, len(cells))
        )
        try:
            while pending and pool is not None:
                try:
                    _drain_pool(
                        pool, worker, pending, failures, attempts, policy,
                        collect,
                    )
                except _PoolFailure:
                    _abandon_pool(pool)
                    pool = None
                    if pending and not respawned:
                        respawned = True
                        _metrics.counter_add("parallel.pool_respawns")
                        pool = ProcessPoolExecutor(
                            max_workers=min(jobs, len(pending))
                        )
        finally:
            if pool is not None:
                pool.shutdown(wait=True)

        # The respawned pool went too: finish the survivors in-process.
        if pending:
            _metrics.counter_add("parallel.serial_fallback_cells", len(pending))
            failures.update(
                run_in_process(sorted(pending.items()), worker, policy, collect)
            )

    raise_for_failures(failures, results, len(cells))
    return [results[index] for index in range(len(cells))]
