"""Experiment: robustness of the headline conclusions (extension).

A reproduction on a calibrated simulator owes its reader an answer to
"would the conclusions change if your knobs were different?"  This
study sweeps the two axes we chose rather than measured:

1. **core-model constants** — base CPI, LLC-hit latency exposure, and
   the MLP ceiling, each varied well beyond plausible error;
2. **trace seeds** — fresh random draws of every synthetic workload.

At every point it re-checks the paper's sign-level conclusions
(*invariants*): NVM fixed-capacity speedups near unity, Jan_S an
order-of-magnitude energy winner, Kang_P an energy loser on write-heavy
AI work, and the Figure 4 AI-scope contrast (write-behaviour features
out-correlate totals for energy).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.correlate.linear import pearson
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentContext, TableWriter
from repro.prism.profile import extract_features
from repro.sim.config import ArchitectureConfig, gainestown
from repro.sim.results import normalize
from repro.workloads.generators import DEFAULT_SEED

#: Core-model constants swept (name, values).  The middle value of each
#: axis is the calibrated default.
MODEL_AXES: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("base_cpi", (0.4, 0.55, 0.8)),
    ("llc_hit_exposure", (0.3, 0.55, 0.8)),
    ("max_mlp", (3.0, 6.0, 10.0)),
)

#: Seeds swept for the trace-randomness axis.
SEED_AXIS: Tuple[int, ...] = (DEFAULT_SEED, 7, 1234)

#: Workloads the invariants are evaluated on.
INVARIANT_WORKLOADS: Tuple[str, ...] = ("deepsjeng", "leela", "exchange2")


@dataclass(frozen=True)
class InvariantCheck:
    """One configuration's verdicts on the paper's sign conclusions."""

    label: str
    speedup_band: bool        # all NVM speedups within 0.9..1.06
    jan_energy_win: bool      # Jan_S energy < 0.3x SRAM everywhere
    kang_energy_loss: bool    # Kang_P energy > 1x SRAM on deepsjeng
    figure4_contrast: bool    # |r(E, H_wl)| > |r(E, totals)| on AI scope

    @property
    def all_hold(self) -> bool:
        """Whether every invariant holds in this configuration."""
        return (
            self.speedup_band
            and self.jan_energy_win
            and self.kang_energy_loss
            and self.figure4_contrast
        )


@dataclass(frozen=True)
class SensitivityResult:
    """All configuration checks."""

    checks: List[InvariantCheck]

    @property
    def robust(self) -> bool:
        """True when the conclusions hold at every swept point."""
        return all(c.all_hold for c in self.checks)

    @property
    def holding_fraction(self) -> float:
        """Fraction of configurations where everything holds."""
        if not self.checks:
            return 0.0
        return sum(c.all_hold for c in self.checks) / len(self.checks)


#: Models each invariant check replays ("SRAM" is the baseline).
CHECK_MODELS: Tuple[str, ...] = ("SRAM", "Jan_S", "Kang_P", "Xue_S")


def _assemble_check(
    label: str,
    seed: int,
    per_workload,
    context: ExperimentContext,
    features_cache,
) -> InvariantCheck:
    speedups: List[float] = []
    jan_ratios: List[float] = []
    kang_deepsjeng = 0.0
    entropies: List[float] = []
    totals: List[float] = []
    energies: List[float] = []

    for workload in INVARIANT_WORKLOADS:
        results = per_workload[workload]
        baseline = results["SRAM"]
        jan = normalize(results["Jan_S"], baseline)
        kang = normalize(results["Kang_P"], baseline)
        xue = normalize(results["Xue_S"], baseline)
        speedups.extend((jan.speedup, kang.speedup, xue.speedup))
        jan_ratios.append(jan.energy_ratio)
        if workload == "deepsjeng":
            kang_deepsjeng = kang.energy_ratio
        key = (workload, seed)
        if key not in features_cache:
            # Features depend on the trace only — shared across every
            # model-constant configuration at this seed.  A seed point's
            # trace left the context with its cell, so this regenerates
            # it once (a few ms at scale 0.05).
            features_cache[key] = extract_features(
                context.trace(workload, seed=seed)
            )
        features = features_cache[key]
        entropies.append(features.write_local_entropy)
        totals.append(features.total_reads)
        energies.append(jan.energy_ratio)

    r_entropy = pearson(np.array(entropies), np.array(energies))
    r_totals = pearson(np.array(totals), np.array(energies))
    return InvariantCheck(
        label=label,
        speedup_band=all(0.9 < s < 1.06 for s in speedups),
        jan_energy_win=all(r < 0.3 for r in jan_ratios),
        kang_energy_loss=kang_deepsjeng > 1.0,
        figure4_contrast=abs(r_entropy) > abs(r_totals),
    )


def run(
    scale: float = 1.0,
    axes: Sequence[Tuple[str, Sequence[float]]] = MODEL_AXES,
    seeds: Sequence[int] = SEED_AXIS,
    context: Optional[ExperimentContext] = None,
    jobs: Optional[int] = None,
) -> SensitivityResult:
    """Run the sensitivity sweep.

    Model-constant points vary one knob at a time around the calibrated
    default (one-factor-at-a-time, 7 points for the default axes); the
    seed axis re-runs the default configuration on fresh traces.

    A shared ``context`` (whose scale/jobs then take precedence) reuses
    the default-seed traces and replays across configurations; ``jobs``
    alone fans the (configuration, workload) cells out over worker
    processes.
    """
    if context is None:
        if not 0.0 < scale <= 1.0:
            raise ExperimentError("scale must be in (0, 1]")
        context = ExperimentContext(scale=scale, jobs=jobs)

    default = gainestown()
    configs: List[Tuple[str, ArchitectureConfig, int]] = [
        ("default", default, DEFAULT_SEED)
    ]
    for name, values in axes:
        for value in values:
            if value == getattr(default, name):
                continue  # the default point is already checked
            arch = dataclasses.replace(default, **{name: value})
            configs.append((f"{name}={value:g}", arch, DEFAULT_SEED))
    for seed in seeds:
        if seed == DEFAULT_SEED:
            continue
        configs.append((f"seed={seed}", default, seed))

    cells = [
        context.cell(workload, "fixed-capacity", CHECK_MODELS, seed=seed, arch=arch)
        for _, arch, seed in configs
        for workload in INVARIANT_WORKLOADS
    ]
    all_results = context.run_cells(cells)

    checks: List[InvariantCheck] = []
    features_cache: Dict[tuple, object] = {}
    offset = 0
    for label, _, seed in configs:
        per_workload = {
            workload: all_results[offset + i]
            for i, workload in enumerate(INVARIANT_WORKLOADS)
        }
        offset += len(INVARIANT_WORKLOADS)
        checks.append(
            _assemble_check(label, seed, per_workload, context, features_cache)
        )
    return SensitivityResult(checks=checks)


def render(result: SensitivityResult) -> str:
    """Render the verdict table."""
    table = TableWriter(
        headers=[
            "configuration",
            "speedup band",
            "Jan_S win",
            "Kang_P loss",
            "Fig4 contrast",
            "all",
        ]
    )
    for check in result.checks:
        table.add(
            check.label,
            "ok" if check.speedup_band else "FAIL",
            "ok" if check.jan_energy_win else "FAIL",
            "ok" if check.kang_energy_loss else "FAIL",
            "ok" if check.figure4_contrast else "FAIL",
            "ok" if check.all_hold else "FAIL",
        )
    verdict = (
        "conclusions hold at every swept point"
        if result.robust
        else f"conclusions hold in {result.holding_fraction:.0%} of points"
    )
    return (
        "Sensitivity of the headline conclusions to model constants and seeds\n"
        + table.render()
        + f"\n\n{verdict}"
    )
