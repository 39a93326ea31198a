"""Experiment: evaluate the NVM-LLC management techniques (extension).

The paper's Section I taxonomy motivates three technique groups but
evaluates none; this extension study prices one representative of each
group — plus the hybrid SRAM/NVM partition — on the endurance-limited
technologies over write-diverse workloads: data-array write reduction,
write-energy reduction, DRAM traffic cost, and projected lifetime gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentContext, TableWriter
from repro.nvsim.published import published_model
from repro.techniques.early_write_termination import EarlyWriteTermination
from repro.techniques.evaluate import (
    TechniqueEvaluation,
    price_outcomes,
    replay_techniques,
)
from repro.techniques.hybrid import HybridEvaluation, evaluate_hybrid
from repro.techniques.replay import TechniqueOutcome
from repro.techniques.wear_leveling import SetRotationLeveling
from repro.techniques.write_bypass import ReuseWriteBypass

#: Endurance-limited targets the techniques are priced on.
DEFAULT_LLCS = ("Kang_P", "Zhang_R")

#: Write-diverse workload subset (hot writebacks, streams, AI mix).
DEFAULT_WORKLOADS = ("gobmk", "ft", "deepsjeng")


@dataclass(frozen=True)
class TechniquesStudy:
    """All technique evaluations plus the hybrid results."""

    evaluations: List[TechniqueEvaluation]
    hybrids: List[HybridEvaluation]

    def evaluation(
        self, workload: str, llc: str, technique: str
    ) -> TechniqueEvaluation:
        """Lookup one (workload, llc, technique) cell."""
        for e in self.evaluations:
            if (e.workload, e.llc_name, e.technique) == (workload, llc, technique):
                return e
        raise KeyError(f"no evaluation for {workload}/{llc}/{technique}")


def run(
    context: Optional[ExperimentContext] = None,
    llcs: Sequence[str] = DEFAULT_LLCS,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
) -> TechniquesStudy:
    """Run the techniques study."""
    context = context or ExperimentContext()
    evaluations: List[TechniqueEvaluation] = []
    hybrids: List[HybridEvaluation] = []
    for workload in workloads:
        session = context.session(workload)
        private = session.private
        window_s = session.run(published_model("Xue_S")).runtime_s
        # Models of one capacity price one replay of the baseline and of
        # each technique (fresh instances: leveling and bypassing keep
        # state across a replay).
        replayed: Dict[int, Tuple[TechniqueOutcome, List[TechniqueOutcome]]] = {}
        for llc_name in llcs:
            model = published_model(llc_name, "fixed-capacity")
            capacity = model.capacity_bytes
            if capacity not in replayed:
                replayed[capacity] = replay_techniques(
                    private.stream,
                    (
                        SetRotationLeveling(period=4096),
                        ReuseWriteBypass(filter_blocks=8192),
                        EarlyWriteTermination(),
                    ),
                    capacity,
                    context.arch,
                )
            baseline, treated = replayed[capacity]
            evaluations.extend(
                price_outcomes(workload, model, baseline, outcome, window_s)
                for outcome in treated
            )
            hybrids.append(
                evaluate_hybrid(private.stream, model, sram_ways=2)
            )
    return TechniquesStudy(evaluations=evaluations, hybrids=hybrids)


def render(study: TechniquesStudy) -> str:
    """Render the study as tables."""
    table = TableWriter(
        headers=[
            "workload",
            "LLC",
            "technique",
            "write cut",
            "energy cut",
            "lifetime x",
            "dram writes +",
        ]
    )
    for e in study.evaluations:
        gain = e.lifetime_gain
        table.add(
            e.workload,
            e.llc_name,
            e.technique,
            f"{e.write_reduction:+.1%}",
            f"{e.energy_reduction:+.1%}",
            f"{gain:.2f}" if gain is not None else "-",
            e.extra_dram_writes,
        )
    hybrid = TableWriter(
        headers=[
            "LLC",
            "sram ways",
            "NVM write cut",
            "write-energy cut",
            "leakage x",
            "migrations",
        ]
    )
    for h in study.hybrids:
        hybrid.add(
            h.llc_name,
            h.sram_ways,
            f"{h.nvm_write_reduction:.1%}",
            f"{h.write_energy_reduction:.1%}",
            f"{h.leakage_increase:.1f}",
            h.counts.migrations,
        )
    return (
        "Technique evaluations (vs technique-free baseline)\n"
        + table.render()
        + "\n\nHybrid SRAM/NVM way partition (2 SRAM ways of 16)\n"
        + hybrid.render()
    )
