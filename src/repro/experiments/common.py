"""Shared infrastructure for the experiment drivers.

An :class:`ExperimentContext` owns trace generation and simulation
caching for one run of the experiment suite: each workload's trace is
generated once, its private-level replay once, and its LLC replay once
per distinct capacity.  ``scale`` shortens traces uniformly for quick
runs (tests); note that below ~0.5 the capacity-sweep components no
longer complete enough passes for fixed-area capacity effects to show.

:meth:`ExperimentContext.run_cell` is the one executor of a sweep cell:
the serial loop calls it, and each process-pool worker
(:mod:`repro.sim.parallel`) calls it on a fresh context, which
regenerates the cell's trace from its seeded key.
:meth:`ExperimentContext.run_cells` is the one place that picks serial
or pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import CheckpointError, ExperimentError
from repro.nvsim.published import published_models
from repro.obs import metrics as _metrics
from repro.obs.progress import ProgressLine
from repro.sim.checkpoint import CheckpointJournal, cell_digest
from repro.sim.config import ArchitectureConfig, gainestown
from repro.sim.parallel import (
    FAULT_HOOK_ENV,
    FaultPolicy,
    SweepCell,
    fire_hook,
    raise_for_failures,
    resolve_jobs,
    resolve_model,
    run_cells,
    run_in_process,
)
from repro.sim.results import NormalizedResult, SimResult, normalize
from repro.sim.system import SimulationSession
from repro.trace.stream import Trace
from repro.workloads.generators import DEFAULT_SEED, generate_from_profile
from repro.workloads.profiles import profile


class ExperimentContext:
    """Caches traces and simulation sessions across experiments.

    Traces are keyed by (workload, seed, length, threads) and sessions
    additionally by architecture, so the core-sweep and sensitivity
    studies — which vary core counts, seeds and model constants — share
    one context (and one trace per distinct key) with the table/figure
    experiments.  Private and LLC replays are shared across a trace's
    sessions on the replay cache's own keys
    (:func:`~repro.sim.replay_cache.private_arch_key`,
    :func:`~repro.sim.replay_cache.llc_geometry_key`), also for traces
    too short for the on-disk cache.

    Parameters
    ----------
    scale:
        Multiplier on each profile's trace length (1.0 = full).
    seed:
        Trace-generation seed.
    arch:
        Architecture; defaults to the paper's 4-core Gainestown.
    jobs:
        Worker processes for sweeps run through this context: 1 =
        serial in-process (the default), N > 1 = a process pool,
        0 = one worker per CPU.  See :mod:`repro.sim.parallel`.
    checkpoint:
        Optional :class:`~repro.sim.checkpoint.CheckpointJournal`.
        When given, cells already recorded in the journal are skipped
        (their journaled results are returned instead — byte-identical
        to recomputation) and every newly completed cell is recorded
        durably, making the run resumable after a crash.
    fault_policy:
        Timeout/retry/pool-recovery policy for sweeps
        (:class:`~repro.sim.parallel.FaultPolicy`); defaults to the
        environment configuration.  Retries apply to serial and pool
        sweeps alike; the timeout bounds only pool cells.
    """

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = DEFAULT_SEED,
        arch: Optional[ArchitectureConfig] = None,
        jobs: Optional[int] = None,
        checkpoint: Optional[CheckpointJournal] = None,
        fault_policy: Optional[FaultPolicy] = None,
    ) -> None:
        if not 0.0 < scale <= 1.0:
            raise ExperimentError("scale must be in (0, 1]")
        self.scale = scale
        self.seed = seed
        self.arch = arch or gainestown()
        self.jobs = resolve_jobs(jobs)
        self.checkpoint = checkpoint
        self.fault_policy = fault_policy
        self.cells_skipped = 0
        self._checkpointed: Dict[str, Dict[str, SimResult]] = (
            checkpoint.load() if checkpoint is not None else {}
        )
        self._checkpoint_warned = False
        self._traces: Dict[tuple, Trace] = {}
        self._sessions: Dict[tuple, SimulationSession] = {}
        self._replays: Dict[tuple, dict] = {}

    def n_accesses(self, workload: str) -> int:
        """Trace length for a workload at this context's scale."""
        return max(5000, int(profile(workload).n_accesses * self.scale))

    def _trace_key(
        self,
        workload: str,
        seed: Optional[int],
        n_accesses: Optional[int],
        n_threads: Optional[int],
    ) -> tuple:
        """(workload, seed, length, threads) with the context's defaults
        and the profile's thread count filled in, so every request for
        one generated trace shares one key."""
        return (
            workload,
            self.seed if seed is None else seed,
            self.n_accesses(workload) if n_accesses is None else n_accesses,
            n_threads or profile(workload).n_threads,
        )

    def trace(
        self,
        workload: str,
        seed: Optional[int] = None,
        n_accesses: Optional[int] = None,
        n_threads: Optional[int] = None,
    ) -> Trace:
        """The (cached) trace for a workload at this context's scale.

        ``seed``/``n_accesses``/``n_threads`` override the context
        defaults (sensitivity and core-sweep cells need their own seeds,
        lengths and thread counts); each distinct key is generated once.
        """
        key = self._trace_key(workload, seed, n_accesses, n_threads)
        if key not in self._traces:
            _, seed, n, threads = key
            self._traces[key] = generate_from_profile(
                profile(workload), seed=seed, n_accesses=n, n_threads=threads
            )
        return self._traces[key]

    def session(
        self,
        workload: str,
        arch: Optional[ArchitectureConfig] = None,
        seed: Optional[int] = None,
        n_accesses: Optional[int] = None,
        n_threads: Optional[int] = None,
    ) -> SimulationSession:
        """The (cached) simulation session for a workload (+ overrides).

        Sessions are configuration-agnostic — pass the configuration to
        ``run()`` — so one private replay serves both fixed-capacity and
        fixed-area sweeps of the same workload.  Sessions of one trace
        share its replays on the replay cache's keys, so architectures
        that differ only in timing or energy constants replay once; each
        session still prices with its own architecture.
        """
        arch = arch or self.arch
        trace_key = self._trace_key(workload, seed, n_accesses, n_threads)
        key = (trace_key, arch)
        if key not in self._sessions:
            self._sessions[key] = SimulationSession(
                self.trace(*trace_key),
                arch=arch,
                replays=self._replays.setdefault(trace_key, {}),
            )
        return self._sessions[key]

    # -- cells -----------------------------------------------------------

    def cell(
        self,
        workload: str,
        configuration: str,
        model_names: Sequence[str],
        seed: Optional[int] = None,
        n_accesses: Optional[int] = None,
        n_threads: Optional[int] = None,
        arch: Optional[ArchitectureConfig] = None,
    ) -> SweepCell:
        """Build a :class:`~repro.sim.parallel.SweepCell` with this
        context's defaults filled in (lengths resolved so workers and
        the serial path generate identical traces)."""
        return SweepCell(
            workload=workload,
            configuration=configuration,
            model_names=tuple(model_names),
            seed=self.seed if seed is None else seed,
            n_accesses=self.n_accesses(workload) if n_accesses is None else n_accesses,
            n_threads=n_threads,
            arch=arch or self.arch,
        )

    def run_cell(self, cell: SweepCell) -> Dict[str, SimResult]:
        """Run one cell in-process through the context's session cache.

        The only code that builds a cell's session, fires the
        ``REPRO_FAULT_HOOK`` seam and opens the ``experiments.cell``
        span: serial sweeps and serve jobs call it on their context,
        pool workers on a fresh one (:func:`~repro.sim.parallel.run_cell`).
        """
        fire_hook(FAULT_HOOK_ENV, cell)
        with _metrics.span("experiments.cell"):
            session = self.session(
                cell.workload,
                arch=cell.arch,
                seed=cell.seed,
                n_accesses=cell.n_accesses,
                n_threads=cell.n_threads,
            )
            results = {
                name: session.run(
                    resolve_model(name, cell.configuration), cell.configuration
                )
                for name in cell.model_names
            }
        _metrics.counter_add("experiments.cells")
        return results

    def _record_checkpoint(self, cell: SweepCell, results: Dict[str, SimResult]) -> None:
        """Journal one completed cell (checkpoint failures are non-fatal:
        the run still holds the results in memory — it just loses
        resumability for this cell, warned once and counted)."""
        if self.checkpoint is None:
            return
        self._checkpointed[cell_digest(cell)] = results
        try:
            self.checkpoint.record(cell, results)
        except CheckpointError as error:
            if not self._checkpoint_warned:
                self._checkpoint_warned = True
                import sys

                print(f"warning: {error} — run continues, resumability "
                      "degraded for unjournaled cells", file=sys.stderr)

    def run_cells(self, cells: Sequence[SweepCell]) -> List[Dict[str, SimResult]]:
        """Run cells honouring ``jobs``: serial runs go through the
        context's caches (:func:`~repro.sim.parallel.run_in_process`);
        with ``jobs > 1`` and more than one cell left they fan out over
        a process pool (:func:`~repro.sim.parallel.run_cells`), whose
        workers regenerate each trace from its cell key and share
        replays with the parent through the on-disk replay cache.
        Results are in input order either way, and both paths retry
        transient failures under the fault policy.  A cell that still
        fails does not stop the others: once they have run,
        :class:`~repro.errors.PartialResultError` carries every
        completed cell.

        With a checkpoint journal attached, cells already journaled are
        skipped (their recorded results are returned — byte-identical
        to recomputation) and each newly completed cell is journaled
        durably before the sweep moves on.
        """
        from repro.errors import PartialResultError

        cells = list(cells)
        done: List[Optional[Dict[str, SimResult]]] = [None] * len(cells)
        todo: List[Tuple[int, SweepCell]] = []
        for index, cell in enumerate(cells):
            recorded = (
                self._checkpointed.get(cell_digest(cell))
                if self.checkpoint is not None
                else None
            )
            if recorded is not None:
                done[index] = recorded
            else:
                todo.append((index, cell))
        skipped = len(cells) - len(todo)
        if skipped:
            self.cells_skipped += skipped
            _metrics.counter_add("checkpoint.cells_skipped", skipped)
        if not todo:
            return done  # type: ignore[return-value]

        policy = self.fault_policy
        if policy is None:
            policy = FaultPolicy.from_env()
        if self.jobs <= 1 or len(todo) <= 1:
            with ProgressLine(total=len(todo), label="cells") as progress:

                def collect(index: int, results: Dict[str, SimResult]) -> None:
                    cell = cells[index]
                    done[index] = results
                    self._record_checkpoint(cell, results)
                    progress.tick(f"{cell.workload} ({cell.configuration})")

                failures = run_in_process(todo, self.run_cell, policy, collect)
            raise_for_failures(
                failures,
                {i: value for i, value in enumerate(done) if value is not None},
                len(cells),
            )
            return done  # type: ignore[return-value]

        def on_result(position: int, cell: SweepCell, results: Dict[str, SimResult]) -> None:
            self._record_checkpoint(cell, results)

        try:
            fresh = run_cells(
                [cell for _, cell in todo],
                self.jobs,
                policy=policy,
                on_result=on_result,
            )
        except PartialResultError as error:
            # Re-map partial results to the caller's cell indices and
            # fold in the checkpoint-skipped cells — nothing is lost.
            completed = {
                todo[position][0]: value
                for position, value in error.completed.items()
            }
            for index, value in enumerate(done):
                if value is not None:
                    completed[index] = value
            raise PartialResultError(
                str(error),
                completed=completed,
                failures={
                    todo[position][0]: message
                    for position, message in error.failures.items()
                },
            ) from None
        for (index, _), value in zip(todo, fresh):
            done[index] = value
        return done  # type: ignore[return-value]

    # -- sweeps ----------------------------------------------------------

    def _sweep_models(self, configuration, llc_names):
        models = published_models(configuration)
        if llc_names is not None:
            wanted = set(llc_names)
            models = [m for m in models if m.name in wanted]
        return models

    def absolute_sweep(
        self,
        workloads: Sequence[str],
        configuration: str,
        llc_names: Optional[Sequence[str]] = None,
    ) -> Dict[str, Dict[str, SimResult]]:
        """Raw (unnormalised) results per LLC per workload.

        Used by the general-purpose correlation analysis, which the
        paper phrases over absolute LLC energy and execution time.
        """
        models = self._sweep_models(configuration, llc_names)
        names = tuple(m.name for m in models)
        cells = [self.cell(w, configuration, names) for w in workloads]
        out: Dict[str, Dict[str, SimResult]] = {m.name: {} for m in models}
        for workload, results in zip(workloads, self.run_cells(cells)):
            for name in names:
                out[name][workload] = results[name]
        return out

    def normalized_sweep(
        self,
        workloads: Sequence[str],
        configuration: str,
        llc_names: Optional[Sequence[str]] = None,
    ) -> Dict[str, Dict[str, NormalizedResult]]:
        """Run every workload against every published LLC model.

        Returns ``{llc_name: {workload: NormalizedResult}}``, normalised
        per-workload against the SRAM baseline of the same configuration.
        """
        models = self._sweep_models(configuration, llc_names)
        names = tuple(m.name for m in models)
        # "SRAM" resolves to the baseline; include it even when filtered
        # out so every cell can normalise.
        cell_names = names if "SRAM" in names else ("SRAM",) + names
        cells = [self.cell(w, configuration, cell_names) for w in workloads]
        out: Dict[str, Dict[str, NormalizedResult]] = {m.name: {} for m in models}
        for workload, results in zip(workloads, self.run_cells(cells)):
            baseline = results["SRAM"]
            for name in names:
                out[name][workload] = normalize(results[name], baseline)
        return out


@dataclass
class TableWriter:
    """Minimal fixed-width / markdown table renderer for experiment CLI
    output and EXPERIMENTS.md regeneration."""

    headers: List[str]
    rows: List[List[str]] = field(default_factory=list)

    def add(self, *cells: object) -> None:
        """Append one row (cells are str()-ed)."""
        if len(cells) != len(self.headers):
            raise ExperimentError(
                f"row has {len(cells)} cells, expected {len(self.headers)}"
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        """Render as a GitHub-flavoured markdown table."""
        widths = [
            max(len(h), *(len(r[i]) for r in self.rows)) if self.rows else len(h)
            for i, h in enumerate(self.headers)
        ]
        def line(cells: Iterable[str]) -> str:
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        out = [line(self.headers), line("-" * w for w in widths)]
        out.extend(line(r) for r in self.rows)
        return "\n".join(out)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
