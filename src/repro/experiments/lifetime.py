"""Experiment: the paper's Section VII future-work lifetime study.

"Future work will characterize the extent to which architecture-agnostic
features (like the ones studied in this work) will affect the lifetime
of different NVMs."  This driver does exactly that: for each
characterized workload it replays the wear distribution on the
endurance-limited technologies (PCRAM, RRAM), projects unleveled
lifetime at the workload's simulated write rate, and correlates the
(log-)lifetimes against the Table VI features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.correlate.linear import pearson
from repro.endurance.lifetime import LifetimeEstimate, estimate_lifetime
from repro.endurance.wear import WearSummary, replay_with_wear
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentContext, TableWriter
from repro.nvsim.published import published_model, sram_baseline
from repro.prism.profile import FEATURE_NAMES, WorkloadFeatures, extract_features
from repro.workloads.registry import characterized_benchmarks

#: The endurance-limited technologies the study covers.
DEFAULT_LLCS = ("Kang_P", "Close_P", "Zhang_R", "Hayakawa_R")


@dataclass(frozen=True)
class LifetimeStudy:
    """Per-workload lifetimes plus feature correlations."""

    llc_names: Tuple[str, ...]
    workloads: Tuple[str, ...]
    lifetimes: Dict[str, Dict[str, LifetimeEstimate]]  # llc -> workload
    features: Dict[str, WorkloadFeatures]

    def lifetime_years(self, llc: str, workload: str) -> float:
        """Unleveled lifetime in years."""
        estimate = self.lifetimes[llc][workload]
        if estimate.unleveled_years is None:
            raise ExperimentError(f"{llc} does not wear out")
        return estimate.unleveled_years

    def correlations(self, llc: str) -> Dict[str, float]:
        """Pearson r of each feature vs log-lifetime across workloads."""
        lifetimes = np.array(
            [math.log10(max(1e-12, self.lifetime_years(llc, w)))
             for w in self.workloads]
        )
        out = {}
        for feature in FEATURE_NAMES:
            values = np.array(
                [getattr(self.features[w], feature) for w in self.workloads]
            )
            out[feature] = pearson(values, lifetimes)
        return out


def run(
    context: Optional[ExperimentContext] = None,
    llcs: Sequence[str] = DEFAULT_LLCS,
    workloads: Optional[Sequence[str]] = None,
) -> LifetimeStudy:
    """Run the lifetime study."""
    context = context or ExperimentContext()
    names = list(workloads) if workloads is not None else characterized_benchmarks()
    models = {name: published_model(name, "fixed-capacity") for name in llcs}

    features: Dict[str, WorkloadFeatures] = {}
    lifetimes: Dict[str, Dict[str, LifetimeEstimate]] = {n: {} for n in llcs}
    for workload in names:
        trace = context.trace(workload)
        features[workload] = extract_features(trace)
        session = context.session(workload)
        # The wear window's wall-clock duration: the workload's own
        # simulated runtime on the SRAM baseline (technology-neutral).
        window_s = session.run(sram_baseline()).runtime_s
        # The wear depends only on the geometry, so models of one
        # capacity (all of fixed-capacity) share one replay.
        wear_by_capacity: Dict[int, WearSummary] = {}
        for llc_name, model in models.items():
            capacity = model.capacity_bytes
            if capacity not in wear_by_capacity:
                wear_by_capacity[capacity] = replay_with_wear(
                    session.private.stream,
                    capacity,
                    context.arch.llc_associativity,
                    context.arch.llc_block_bytes,
                )
            lifetimes[llc_name][workload] = estimate_lifetime(
                model.name, model.cell_class, wear_by_capacity[capacity],
                window_s,
            )
    return LifetimeStudy(
        llc_names=tuple(llcs),
        workloads=tuple(names),
        lifetimes=lifetimes,
        features=features,
    )


def render(study: LifetimeStudy) -> str:
    """Render lifetimes and the feature-correlation table."""
    years = TableWriter(headers=["workload"] + list(study.llc_names))
    for workload in study.workloads:
        years.add(
            workload,
            *[
                f"{study.lifetime_years(llc, workload):.2e}"
                for llc in study.llc_names
            ],
        )
    correlations = TableWriter(headers=["feature"] + list(study.llc_names))
    per_llc = {llc: study.correlations(llc) for llc in study.llc_names}
    for feature in FEATURE_NAMES:
        correlations.add(
            feature, *[per_llc[llc][feature] for llc in study.llc_names]
        )
    return (
        "Projected unleveled lifetime [years] (fixed-capacity, 2 MB)\n"
        + years.render()
        + "\n\nFeature correlation with log10(lifetime)\n"
        + correlations.render()
    )
