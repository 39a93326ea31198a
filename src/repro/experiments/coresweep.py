"""Experiment: Section V-C core-sweep sensitivity study.

Scales the multi-threaded NPB workloads from 1 to 32 cores (one thread
per core, constant total work) against the fixed-area LLC technologies
the paper analyses, normalised to a single-core SRAM baseline.  As cores
grow, per-thread striping multiplies the aggregate footprint, so LLC
capacity becomes the binding resource — the paper's "capacity is an
increasing strain" observation — while leakage-heavy dense NVMs pay for
their watts whenever runtime stretches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.common import ExperimentContext, TableWriter
from repro.sim.config import gainestown
from repro.sim.results import SimResult
from repro.workloads.generators import DEFAULT_SEED
from repro.workloads.profiles import profile

#: Core counts the paper sweeps.
DEFAULT_CORES = (1, 2, 4, 8, 16, 32)

#: Workloads Section V-C discusses.
DEFAULT_WORKLOADS = ("ft", "cg", "lu", "sp", "mg", "is")

#: Fixed-area technologies Section V-C analyses (plus the SRAM anchor).
DEFAULT_LLCS = ("Umeki_S", "Jan_S", "Xue_S", "Hayakawa_R", "Zhang_R", "SRAM")


@dataclass(frozen=True)
class SweepPoint:
    """One (workload, cores, llc) sample of the sweep."""

    workload: str
    n_cores: int
    llc_name: str
    runtime_s: float
    llc_energy_j: float
    mpki: float

    @property
    def ed2p(self) -> float:
        """Energy-delay-squared product."""
        return self.llc_energy_j * self.runtime_s**2


@dataclass(frozen=True)
class CoreSweepResult:
    """All sweep samples plus the single-core SRAM baselines."""

    points: List[SweepPoint]
    baselines: Dict[str, SweepPoint]

    def point(self, workload: str, n_cores: int, llc: str) -> SweepPoint:
        """Sample lookup."""
        for p in self.points:
            if (p.workload, p.n_cores, p.llc_name) == (workload, n_cores, llc):
                return p
        raise ExperimentError(f"no sweep point for {workload}/{n_cores}/{llc}")

    def speedup(self, workload: str, n_cores: int, llc: str) -> float:
        """Speedup vs the single-core SRAM baseline of that workload."""
        baseline = self.baselines[workload]
        return baseline.runtime_s / self.point(workload, n_cores, llc).runtime_s

    def energy_ratio(self, workload: str, n_cores: int, llc: str) -> float:
        """LLC energy vs the single-core SRAM baseline."""
        baseline = self.baselines[workload]
        return self.point(workload, n_cores, llc).llc_energy_j / baseline.llc_energy_j


def run(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    cores: Sequence[int] = DEFAULT_CORES,
    llcs: Sequence[str] = DEFAULT_LLCS,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    context: Optional[ExperimentContext] = None,
    jobs: Optional[int] = None,
) -> CoreSweepResult:
    """Run the core sweep.

    The baseline is the 1-core SRAM run of each workload; it is always
    simulated even when 1 is not in ``cores``.

    A shared ``context`` (whose scale/seed/jobs then take precedence)
    lets the 4-core cells, the workloads' default traces, reuse traces
    and replays across experiments; every other core count's trace is
    dropped when its cell ends.  ``jobs`` alone fans the
    (workload, core-count) cells out over worker processes.
    """
    if not workloads or not cores or not llcs:
        raise ExperimentError("core sweep needs workloads, cores and llcs")
    if context is None:
        context = ExperimentContext(scale=scale, seed=seed, jobs=jobs)

    # SRAM is replayed last within each cell (the legacy point order);
    # the 1-core cell needs it regardless, for the baseline.
    model_order = [name for name in llcs if name != "SRAM"]
    if "SRAM" in llcs:
        model_order.append("SRAM")

    core_list = sorted(set(cores) | {1})
    cells = []
    for workload in workloads:
        bench = profile(workload)
        base_n = max(5000, int(bench.n_accesses * context.scale))
        for n_cores in core_list:
            # Weak scaling: each core brings its own thread and working
            # set, which is what turns capacity into "an increasing
            # strain on the system as cores increase" (Section V-C).
            n = min(base_n * n_cores // 4, 4 * base_n) if n_cores > 4 else base_n
            names = list(model_order) if n_cores in cores else []
            if n_cores == 1 and "SRAM" not in names:
                names.append("SRAM")
            cells.append(
                context.cell(
                    workload,
                    "fixed-area",
                    names,
                    n_accesses=n,
                    n_threads=n_cores,
                    arch=gainestown(n_cores=n_cores),
                )
            )

    points: List[SweepPoint] = []
    baselines: Dict[str, SweepPoint] = {}
    for cell, results in zip(cells, context.run_cells(cells)):
        n_cores = cell.n_threads
        if n_cores == 1:
            baselines[cell.workload] = _point(results["SRAM"], cell.workload, 1)
        if n_cores not in cores:
            continue
        for name in model_order:
            points.append(_point(results[name], cell.workload, n_cores))
    return CoreSweepResult(points=points, baselines=baselines)


def _point(result: SimResult, workload: str, n_cores: int) -> SweepPoint:
    return SweepPoint(
        workload=workload,
        n_cores=n_cores,
        llc_name=result.llc_name,
        runtime_s=result.runtime_s,
        llc_energy_j=result.llc_energy_j,
        mpki=result.mpki,
    )


def render(result: CoreSweepResult) -> str:
    """Render speedup/energy tables plus sparkline scaling curves."""
    from repro.report.charts import sparkline

    out = []
    workloads = sorted({p.workload for p in result.points})
    cores = sorted({p.n_cores for p in result.points})
    llcs = sorted({p.llc_name for p in result.points})
    for workload in workloads:
        speed = TableWriter(headers=["LLC"] + [f"{c} cores" for c in cores])
        energy = TableWriter(headers=["LLC"] + [f"{c} cores" for c in cores])
        curves = []
        for llc in llcs:
            speedups = [result.speedup(workload, c, llc) for c in cores]
            speed.add(llc, *speedups)
            energy.add(llc, *[result.energy_ratio(workload, c, llc) for c in cores])
            curves.append(f"  {llc:12s} {sparkline(speedups)}")
        out.append(
            f"Core sweep — {workload}: speedup vs 1-core SRAM\n{speed.render()}"
            f"\n\nCore sweep — {workload}: LLC energy vs 1-core SRAM\n{energy.render()}"
            f"\n\nscaling curves ({cores[0]}->{cores[-1]} cores):\n"
            + "\n".join(curves)
        )
    return "\n\n".join(out)
