"""Parallel experiment fan-out over deterministic sweep cells.

The experiment suite is embarrassingly parallel at the granularity of
one (workload, core-count) cell: each cell generates a trace, replays it
through the private levels once, and sweeps the LLC models that share
that replay.  This module fans cells out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Workers receive only small, picklable :class:`SweepCell` keys —
(workload, seed, length, threads, architecture, model names) — so no
multi-megabyte trace or stream ever crosses the process boundary; only
the compact :class:`~repro.sim.results.SimResult` objects come back.  A
cell may carry a :class:`~repro.trace.stream.TraceSpill` handle (paths
to ``.npy`` columns the parent wrote once): the worker then maps the
trace read-only through the page cache — zero copies, zero pickling —
instead of regenerating it.  Either way the trace is bit-identical to
the one the serial path would build (generation is fully seeded,
:mod:`repro.workloads.generators`), and the shared on-disk replay cache
(:mod:`repro.sim.replay_cache`) lets the parent — and later runs —
reuse whatever the workers replayed.

``jobs`` semantics everywhere in the experiments layer: ``1`` (default)
runs serially in-process, ``N > 1`` uses N worker processes, and ``0``
means "one per CPU" (:func:`default_jobs`).

Fault tolerance
---------------

Long sweeps die in three characteristic ways, and :func:`run_cells`
survives each (policy knobs in :class:`FaultPolicy`, environment
defaults below):

- *A worker raises or is killed.*  Non-library exceptions are treated
  as transient and the cell retries with exponential backoff
  (``max_retries``); a killed worker breaks the whole pool
  (``BrokenProcessPool``), which is recovered by respawning the pool
  once (``pool_respawns``) and, if it breaks again, degrading to
  in-process serial execution for the surviving cells.  Deterministic
  library errors (:class:`~repro.errors.ReproError`) fail fast — the
  cell would fail identically on every retry.
- *A worker hangs.*  ``cell_timeout_s`` bounds the wait per collected
  cell (``REPRO_CELL_TIMEOUT``); on timeout the pool — which still owns
  the hung process — is abandoned and force-killed, and the timed-out
  cell is charged an attempt.
- *Some cells are unrecoverable.*  The sweep never discards finished
  work: it raises :class:`~repro.errors.PartialResultError` carrying
  every completed :class:`~repro.sim.results.SimResult`, and the
  ``on_result`` callback (the checkpoint journal's hook,
  :mod:`repro.sim.checkpoint`) has already been invoked for each of
  them in completion order.

Environment defaults: ``REPRO_CELL_TIMEOUT`` (seconds, unset = no
timeout), ``REPRO_CELL_RETRIES`` (default 2), ``REPRO_RETRY_BACKOFF``
(base seconds, default 0.1).  ``REPRO_FAULT_HOOK`` names a
``module:function`` invoked with each cell before it runs — the fault
injection point the ``tests/faults`` harness uses to kill or delay
workers deliberately; leave it unset in production.

Invariants
----------

- Results come back in input order regardless of completion order, so a
  parallel run is *output-identical* to a serial one — and, via the
  checkpoint journal, a resumed run is output-identical to an
  uninterrupted one (pinned by ``test_parallel_matches_serial`` in
  ``tests/sim/test_parallel.py`` and by
  ``test_sigkill_mid_run_then_resume_matches_uninterrupted`` in
  ``tests/faults/test_kill_resume.py``).
- Only :class:`SweepCell` keys cross the boundary outbound and only
  :class:`~repro.sim.results.SimResult` objects (plus, when metrics are
  on, a plain-dict metrics snapshot) come back — never traces or
  streams.
- The trace a worker simulates is bit-identical to the serial path's:
  cells carry the resolved ``(workload, seed, n_accesses, n_threads)``
  key and generation is fully seeded; a spill handle, when present,
  holds exactly the trace that key would regenerate.
- Retries and pool respawns never double-report a cell: a result is
  collected (and ``on_result`` fired) exactly once per cell.

When run metrics are enabled (:mod:`repro.obs`) each worker collects
into its own registry — counters from the instrumented layers plus a
``parallel.worker.<pid>.cell`` timer per cell — and returns a snapshot
that the parent merges, so per-worker utilization survives the pool
boundary.  Fault handling is counted too: ``parallel.retries``,
``parallel.timeouts``, ``parallel.worker_failures``,
``parallel.pool_respawns`` and ``parallel.serial_fallback_cells``.  A
:class:`~repro.obs.progress.ProgressLine` tracks cell completions on
interactive terminals.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError, PartialResultError, ReproError
from repro.obs import metrics as _metrics
from repro.obs.progress import ProgressLine
from repro.sim.config import ArchitectureConfig, gainestown
from repro.sim.results import SimResult
from repro.trace.stream import TraceSpill

#: Per-cell timeout in seconds (unset/empty = wait forever).
TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"

#: Retries per cell for transient failures (default 2).
RETRIES_ENV = "REPRO_CELL_RETRIES"

#: Base backoff in seconds between retries (default 0.1, doubles).
BACKOFF_ENV = "REPRO_RETRY_BACKOFF"

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

    ``cell_timeout_s`` of None waits forever.  ``max_retries`` counts
    *re*-attempts: 2 means up to three executions of one cell.  Backoff
    doubles per attempt (``backoff_s * 2**(attempt-1)``).
    ``pool_respawns`` bounds how many times a broken/abandoned pool is
    rebuilt before degrading to in-process serial execution.
    """

    cell_timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_s: float = 0.1
    pool_respawns: int = 1

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
            env_retries = _env_float(RETRIES_ENV)
            max_retries = 2 if env_retries is None else int(env_retries)
        backoff = _env_float(BACKOFF_ENV)
        if max_retries < 0:
            raise ExperimentError("cell retries must be >= 0")
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ExperimentError("cell timeout must be > 0 seconds")
        return cls(
            cell_timeout_s=cell_timeout_s,
            max_retries=max_retries,
            backoff_s=0.1 if backoff is None else max(0.0, backoff),
        )


@dataclass(frozen=True)
class SweepCell:
    """One unit of parallel work: a workload replayed against models.

    The cell is a pure *key*: everything a worker needs to regenerate
    the trace deterministically and run the sweep.  ``n_accesses`` /
    ``n_threads`` of None use the profile's defaults; ``arch`` of None
    uses the paper's Gainestown.

    ``trace_spill`` is an optional zero-copy shortcut: a
    :class:`~repro.trace.stream.TraceSpill` handle to the same trace the
    key describes, already written to disk by the parent.  Workers map
    it read-only instead of regenerating — bit-identical either way,
    since generation is fully seeded — so the handle never affects
    results, checkpoints digests or journal records.
    """

    workload: str
    configuration: str
    model_names: Tuple[str, ...]
    seed: int
    n_accesses: Optional[int] = None
    n_threads: Optional[int] = None
    arch: Optional[ArchitectureConfig] = None
    trace_spill: Optional[TraceSpill] = None


def resolve_model(name: str, configuration: str):
    """Model lookup treating ``"SRAM"`` as the baseline of the
    configuration (mirrors the experiment drivers' convention)."""
    from repro.nvsim.published import published_model, sram_baseline

    if name == "SRAM":
        return sram_baseline(configuration)
    return published_model(name, configuration)


def fire_fault_hook(cell: SweepCell) -> None:
    """Invoke the ``REPRO_FAULT_HOOK`` injection point, if configured.

    The hook — ``module:function``, called with the cell — exists so the
    fault-injection test harness can kill, delay or fail a worker at a
    deterministic point; it is a no-op when the variable is unset.
    """
    spec = os.environ.get(FAULT_HOOK_ENV)
    if not spec:
        return
    import importlib

    module_name, _, func_name = spec.partition(":")
    getattr(importlib.import_module(module_name), func_name)(cell)


def run_cell(cell: SweepCell) -> Dict[str, SimResult]:
    """Execute one cell (in a worker or inline): map or regenerate the
    trace, share one private replay across the cell's models, return
    results keyed by model name."""
    from repro.sim.system import SimulationSession
    from repro.workloads.generators import generate_from_profile
    from repro.workloads.profiles import profile

    fire_fault_hook(cell)
    if cell.trace_spill is not None:
        trace = cell.trace_spill.load()
        _metrics.counter_add("parallel.spill_loads")
    else:
        bench = profile(cell.workload)
        trace = generate_from_profile(
            bench,
            seed=cell.seed,
            n_accesses=cell.n_accesses,
            n_threads=cell.n_threads,
        )
    session = SimulationSession(
        trace, arch=cell.arch or gainestown(), configuration=cell.configuration
    )
    return {
        name: session.run(resolve_model(name, cell.configuration))
        for name in cell.model_names
    }


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

    The retry discipline of a sweep cell, exposed for any caller with
    the same failure taxonomy (the experiment service's worker threads
    use it per job): deterministic library failures
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


def _retrying_run(cell: SweepCell, policy: FaultPolicy) -> Dict[str, SimResult]:
    """Run one cell in-process with the policy's transient-retry loop."""
    return call_with_retries(lambda: run_cell(cell), policy)


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
    results: Dict[int, Dict[str, SimResult]],
    failures: Dict[int, str],
    attempts: Dict[int, int],
    policy: FaultPolicy,
    collect: Callable[[int, Any], None],
) -> None:
    """Submit every pending cell and collect what completes.

    Mutates ``pending``/``results``/``failures`` in place.  Transiently
    failed cells stay in ``pending`` (the caller loops and resubmits);
    raises :class:`_PoolFailure` when the pool itself must go.
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
            failures[index] = str(error)
            del pending[index]
        except Exception as error:
            attempts[index] += 1
            if attempts[index] > policy.max_retries:
                failures[index] = f"{type(error).__name__}: {error}"
                del pending[index]
            else:
                _metrics.counter_add("parallel.retries")
                _backoff(policy, attempts[index])
        else:
            del pending[index]
            collect(index, value)


def _run_pool(
    cells: Sequence[SweepCell],
    jobs: int,
    policy: FaultPolicy,
    on_result: Optional[OnResult],
) -> List[Dict[str, SimResult]]:
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

        respawns_left = policy.pool_respawns
        pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=min(jobs, len(cells))
        )
        try:
            while pending and pool is not None:
                try:
                    _drain_pool(
                        pool, worker, pending, results, failures,
                        attempts, policy, collect,
                    )
                except _PoolFailure:
                    _abandon_pool(pool)
                    pool = None
                    if pending and respawns_left > 0:
                        respawns_left -= 1
                        _metrics.counter_add("parallel.pool_respawns")
                        pool = ProcessPoolExecutor(
                            max_workers=min(jobs, len(pending))
                        )
        finally:
            if pool is not None:
                pool.shutdown(wait=True)

        # Out of pool respawns: finish the survivors in-process.
        if pending:
            _metrics.counter_add("parallel.serial_fallback_cells", len(pending))
            for index in sorted(pending):
                cell = pending.pop(index)
                try:
                    collect(index, worker(cell))
                except Exception as error:
                    failures[index] = f"{type(error).__name__}: {error}"

    if failures:
        raise PartialResultError(
            f"{len(failures)} of {len(cells)} cells failed "
            f"({len(results)} completed): "
            + "; ".join(failures[i] for i in sorted(failures)[:3]),
            completed=results,
            failures=failures,
        )
    return [results[index] for index in range(len(cells))]


def _run_serial(
    cells: Sequence[SweepCell],
    policy: FaultPolicy,
    on_result: Optional[OnResult],
) -> List[Dict[str, SimResult]]:
    results: Dict[int, Dict[str, SimResult]] = {}
    failures: Dict[int, str] = {}
    for index, cell in enumerate(cells):
        try:
            value = _retrying_run(cell, policy)
        except Exception as error:
            failures[index] = f"{type(error).__name__}: {error}"
            continue
        results[index] = value
        if on_result is not None:
            on_result(index, cell, value)
    if failures:
        raise PartialResultError(
            f"{len(failures)} of {len(cells)} cells failed "
            f"({len(results)} completed): "
            + "; ".join(failures[i] for i in sorted(failures)[:3]),
            completed=results,
            failures=failures,
        )
    return [results[index] for index in range(len(cells))]


def run_cells(
    cells: Sequence[SweepCell],
    jobs: Optional[int] = None,
    policy: Optional[FaultPolicy] = None,
    on_result: Optional[OnResult] = None,
) -> List[Dict[str, SimResult]]:
    """Run cells, serially or across a process pool, fault-tolerantly.

    Results are returned in input order regardless of completion order,
    so parallel runs are output-identical to serial ones.  ``policy``
    (default: :meth:`FaultPolicy.from_env`) governs timeout, retry and
    pool recovery; ``on_result`` fires once per completed cell in
    completion order (the checkpoint journal's hook).  When some cells
    are unrecoverable the completed ones are never discarded: a
    :class:`~repro.errors.PartialResultError` carries them all.
    """
    cells = list(cells)
    jobs = resolve_jobs(jobs)
    if policy is None:
        policy = FaultPolicy.from_env()
    if jobs <= 1 or len(cells) <= 1:
        return _run_serial(cells, policy, on_result)
    return _run_pool(cells, jobs, policy, on_result)
