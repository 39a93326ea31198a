"""Experiment: the compressed NVM LLC study (extension).

The L2C2 line of work that follows the source paper (Escuin et al.,
arXiv:2204.09504; forecasting companion arXiv:2204.03512) compresses
LLC lines into compacted ways: effective capacity grows with the
workload's compressibility, and every write programs only the
compressed bytes.  This study prices that design on the
endurance-limited technologies: for each workload it replays the LLC
stream with and without compacted-way compression and reports the
speedup, the write-energy ratio, and the projected unleveled lifetime
per cell technology — the three axes the L2C2 papers argue NVM LLCs
win on.

Energy is priced through the shared :func:`repro.nvsim.pricing.price_counts`
hook with ``write_energy_scale`` set to the replayed byte fraction, and
lifetime through :func:`repro.endurance.lifetime.estimate_lifetime`
with the physical frame count and per-cell write fraction — the same
seams every other experiment uses, so an uncompressed run of this study
reproduces the baseline numbers exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.endurance.lifetime import LifetimeEstimate, estimate_lifetime
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentContext, TableWriter
from repro.nvsim.pricing import price_counts
from repro.nvsim.published import published_model, sram_baseline
from repro.report.charts import bar_chart
from repro.techniques.base import Technique
from repro.techniques.compression import CompressedLLC
from repro.techniques.replay import TechniqueOutcome, replay_with_technique
from repro.validate.guard import guard_compression
from repro.workloads.profiles import compressibility

#: Endurance-limited targets the compressed design is priced on.
DEFAULT_LLCS = ("Kang_P", "Zhang_R")

#: Compressibility-diverse workloads: integer (high ratio), NPB
#: floating point (low ratio), AI serving mix.
DEFAULT_WORKLOADS = ("gobmk", "ft", "deepsjeng")


@dataclass(frozen=True)
class CompressionCell:
    """One (workload, LLC) comparison: uncompressed vs compacted."""

    workload: str
    llc_name: str
    declared_ratio: float  # profile's mean compression ratio
    write_bytes_fraction: float  # measured bytes programmed / full size
    mean_resident_lines: float  # measured lines per set (assoc = baseline)
    speedup: float  # runtime_base / runtime_compressed
    energy_ratio: float  # total energy compressed / uncompressed
    baseline_lifetime: LifetimeEstimate
    compressed_lifetime: LifetimeEstimate

    @property
    def lifetime_gain(self) -> float:
        """Unleveled-lifetime multiplier from compression."""
        a = self.baseline_lifetime.unleveled_years
        b = self.compressed_lifetime.unleveled_years
        if a is None or b is None:
            raise ExperimentError(f"{self.llc_name} does not wear out")
        return b / a if a else float("inf")


@dataclass(frozen=True)
class CompressionStudy:
    """All compression cells plus the per-workload replay outcomes."""

    llc_names: Tuple[str, ...]
    workloads: Tuple[str, ...]
    cells: List[CompressionCell]
    outcomes: Dict[str, Tuple[TechniqueOutcome, TechniqueOutcome]]

    def cell(self, workload: str, llc: str) -> CompressionCell:
        """Lookup one (workload, llc) cell."""
        for c in self.cells:
            if (c.workload, c.llc_name) == (workload, llc):
                return c
        raise KeyError(f"no compression cell for {workload}/{llc}")


def run(
    context: Optional[ExperimentContext] = None,
    llcs: Sequence[str] = DEFAULT_LLCS,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
) -> CompressionStudy:
    """Run the compressed-LLC study."""
    context = context or ExperimentContext()
    cells: List[CompressionCell] = []
    outcomes: Dict[str, Tuple[TechniqueOutcome, TechniqueOutcome]] = {}
    models = {name: published_model(name, "fixed-capacity") for name in llcs}
    for workload in workloads:
        session = context.session(workload)
        private = session.private
        # The wear window's wall-clock duration: the workload's own
        # simulated runtime on the SRAM baseline (technology-neutral).
        window_s = session.run(sram_baseline()).runtime_s
        declared = compressibility(workload).mean_ratio
        base: Optional[TechniqueOutcome] = None
        comp: Optional[TechniqueOutcome] = None
        for llc_name, model in models.items():
            if base is None or comp is None:
                # Fixed-capacity models share one geometry, so the two
                # replays are computed once per workload.
                base = replay_with_technique(
                    private.stream,
                    Technique(),
                    model.capacity_bytes,
                    context.arch.llc_associativity,
                    context.arch.llc_block_bytes,
                    context.arch.n_cores,
                    context.arch.mlp_window_instructions,
                    context.arch.max_mlp,
                )
                comp = guard_compression(
                    replay_with_technique(
                        private.stream,
                        CompressedLLC.for_workload(workload, seed=context.seed),
                        model.capacity_bytes,
                        context.arch.llc_associativity,
                        context.arch.llc_block_bytes,
                        context.arch.n_cores,
                        context.arch.mlp_window_instructions,
                        context.arch.max_mlp,
                    ),
                    subject=f"compressed replay {workload}",
                )
                outcomes[workload] = (base, comp)
            result_base = price_counts(
                workload, "fixed-capacity", private, base.counts, model,
                context.arch,
            )
            result_comp = price_counts(
                workload, "fixed-capacity", private, comp.counts, model,
                context.arch,
                write_energy_scale=comp.write_bytes_fraction,
            )
            cells.append(
                CompressionCell(
                    workload=workload,
                    llc_name=llc_name,
                    declared_ratio=declared,
                    write_bytes_fraction=comp.write_bytes_fraction,
                    mean_resident_lines=comp.mean_resident_lines,
                    speedup=result_base.runtime_s / result_comp.runtime_s,
                    energy_ratio=(
                        result_comp.energy.total_j / result_base.energy.total_j
                    ),
                    baseline_lifetime=estimate_lifetime(
                        model.name,
                        model.cell_class,
                        base.wear,
                        window_s,
                        n_frames=base.n_frames,
                        cell_write_fraction=base.write_bytes_fraction,
                    ),
                    compressed_lifetime=estimate_lifetime(
                        model.name,
                        model.cell_class,
                        comp.wear,
                        window_s,
                        n_frames=comp.n_frames,
                        cell_write_fraction=comp.write_bytes_fraction,
                    ),
                )
            )
    return CompressionStudy(
        llc_names=tuple(llcs),
        workloads=tuple(workloads),
        cells=cells,
        outcomes=outcomes,
    )


def render(study: CompressionStudy) -> str:
    """Render the study: per-cell table plus a lifetime-gain chart."""
    table = TableWriter(
        headers=[
            "workload",
            "LLC",
            "ratio",
            "bytes frac",
            "lines/set",
            "speedup",
            "energy x",
            "lifetime x",
        ]
    )
    for c in study.cells:
        table.add(
            c.workload,
            c.llc_name,
            f"{c.declared_ratio:.2f}",
            f"{c.write_bytes_fraction:.3f}",
            f"{c.mean_resident_lines:.2f}",
            f"{c.speedup:.3f}",
            f"{c.energy_ratio:.3f}",
            f"{c.lifetime_gain:.2f}",
        )
    first_llc = study.llc_names[0]
    chart = bar_chart(
        {w: study.cell(w, first_llc).lifetime_gain for w in study.workloads},
        title=f"Unleveled lifetime gain from compression ({first_llc})",
    )
    return (
        "Compacted-way compression vs uncompressed (fixed-capacity, 2 MB)\n"
        + table.render()
        + "\n\n"
        + chart
    )
