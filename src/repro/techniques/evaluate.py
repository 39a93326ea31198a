"""Technique evaluation: energy, traffic and lifetime vs the baseline.

Given a workload and an LLC model, replay the post-L2 stream with and
without a technique and report the deltas that matter for NVM adoption:
data-array write count, LLC dynamic write energy, DRAM write traffic,
and projected lifetime (via :mod:`repro.endurance`).

Replay and pricing are separate steps.  :func:`replay_techniques`
replays the baseline once and each technique once on one LLC geometry,
and :func:`price_outcomes` prices a (baseline, treated) pair against
one LLC model, so models that share a capacity share the replays.
:func:`evaluate_all` is the two steps for one model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.endurance.lifetime import LifetimeEstimate, estimate_lifetime
from repro.errors import SimulationError
from repro.nvsim.model import LLCModel
from repro.sim.config import ArchitectureConfig, gainestown
from repro.sim.hierarchy import LLCStream, PrivateResult, filter_private
from repro.techniques.base import Technique
from repro.techniques.replay import TechniqueOutcome, replay_with_technique
from repro.trace.stream import Trace


@dataclass(frozen=True)
class TechniqueEvaluation:
    """Baseline-vs-technique comparison for one (workload, LLC) pair."""

    workload: str
    llc_name: str
    technique: str
    baseline: TechniqueOutcome
    treated: TechniqueOutcome
    baseline_lifetime: LifetimeEstimate
    treated_lifetime: LifetimeEstimate
    baseline_write_energy_j: float
    treated_write_energy_j: float

    @property
    def write_reduction(self) -> float:
        """Fraction of data-array writes removed by the technique."""
        base = self.baseline.wear.total_writes
        if base == 0:
            return 0.0
        return 1.0 - self.treated.wear.total_writes / base

    @property
    def energy_reduction(self) -> float:
        """Fraction of LLC write energy removed."""
        if self.baseline_write_energy_j == 0:
            return 0.0
        return 1.0 - self.treated_write_energy_j / self.baseline_write_energy_j

    @property
    def lifetime_gain(self) -> Optional[float]:
        """Unleveled-lifetime multiplier (None for unlimited classes).

        The underlying estimates are built with the replay outcome's
        *physical* frame count and per-cell write fraction, so the gain
        stays meaningful for capacity-changing techniques: compression
        holds more lines in the same frames and programs fewer cells
        per write, neither of which the historical fixed-line-count
        assumption could express.
        """
        a = self.baseline_lifetime.unleveled_years
        b = self.treated_lifetime.unleveled_years
        if a is None or b is None:
            return None
        return b / a if a else float("inf")

    @property
    def write_bytes_reduction(self) -> float:
        """Fraction of data-array bytes no longer programmed."""
        base = self.baseline.write_bytes
        if base == 0:
            return 0.0
        return 1.0 - self.treated.write_bytes / base

    @property
    def extra_dram_writes(self) -> int:
        """DRAM writes added (bypassed writebacks) minus removed."""
        return (
            self.treated.counts.dirty_evictions
            - self.baseline.counts.dirty_evictions
        )


def replay_techniques(
    stream: LLCStream,
    techniques: Sequence[Technique],
    capacity_bytes: int,
    arch: ArchitectureConfig,
) -> Tuple[TechniqueOutcome, List[TechniqueOutcome]]:
    """The baseline's replay and each technique's, on the LLC of
    ``arch`` at ``capacity_bytes``."""

    def replay(technique: Technique) -> TechniqueOutcome:
        return replay_with_technique(
            stream,
            technique,
            capacity_bytes,
            arch.llc_associativity,
            arch.llc_block_bytes,
            arch.n_cores,
            arch.mlp_window_instructions,
            arch.max_mlp,
        )

    return replay(Technique()), [replay(technique) for technique in techniques]


def price_outcomes(
    workload: str,
    llc_model: LLCModel,
    baseline: TechniqueOutcome,
    treated: TechniqueOutcome,
    window_s: float,
) -> TechniqueEvaluation:
    """Price a (baseline, treated) replay pair on one LLC model.

    ``window_s`` is the wall-clock duration the replayed window is taken
    to represent when projecting lifetime.
    """

    def write_energy_j(outcome: TechniqueOutcome) -> float:
        # Energy follows bytes actually programmed: write_bytes/block_bytes
        # is float-exact total_writes for full-size writes, and the
        # compressed fraction of a write for compacted lines.
        return (
            (outcome.write_bytes / outcome.block_bytes)
            * llc_model.write_energy_j
            * outcome.write_energy_factor
        )

    def lifetime(outcome: TechniqueOutcome) -> LifetimeEstimate:
        return estimate_lifetime(
            llc_model.name,
            llc_model.cell_class,
            outcome.wear,
            window_s,
            n_frames=outcome.n_frames or None,
            cell_write_fraction=outcome.write_bytes_fraction,
        )

    return TechniqueEvaluation(
        workload=workload,
        llc_name=llc_model.name,
        technique=treated.technique,
        baseline=baseline,
        treated=treated,
        baseline_lifetime=lifetime(baseline),
        treated_lifetime=lifetime(treated),
        baseline_write_energy_j=write_energy_j(baseline),
        treated_write_energy_j=write_energy_j(treated),
    )


def evaluate_all(
    trace: Trace,
    llc_model: LLCModel,
    techniques: Sequence[Technique],
    arch: Optional[ArchitectureConfig] = None,
    window_s: float = 1e-3,
    private: Optional[PrivateResult] = None,
) -> List[TechniqueEvaluation]:
    """Evaluate several techniques against one baseline replay.

    ``window_s`` is the wall-clock duration the replayed window is taken
    to represent when projecting lifetime (the simulated runtime of the
    window is the natural choice; callers with a SimResult should pass
    its ``runtime_s``).  ``private`` reuses a private-level replay of
    ``trace``.
    """
    if window_s <= 0:
        raise SimulationError("window_s must be positive")
    arch = arch or gainestown()
    if private is None:
        private = filter_private(trace, arch)
    baseline, treated = replay_techniques(
        private.stream, techniques, llc_model.capacity_bytes, arch
    )
    workload = trace.name or "trace"
    return [
        price_outcomes(workload, llc_model, baseline, outcome, window_s)
        for outcome in treated
    ]


def evaluate_technique(
    trace: Trace,
    llc_model: LLCModel,
    technique: Technique,
    arch: Optional[ArchitectureConfig] = None,
    window_s: float = 1e-3,
    private: Optional[PrivateResult] = None,
) -> TechniqueEvaluation:
    """Replay baseline and technique, price energy and lifetime (see
    :func:`evaluate_all`)."""
    return evaluate_all(
        trace, llc_model, [technique], arch, window_s, private
    )[0]
