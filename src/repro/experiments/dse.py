"""Experiment (extension): the Pareto frontier of the published-model grid.

Runs every AI benchmark against every Table III model in both
configurations and keeps, per (workload, configuration), the cells no
other cell strictly dominates: higher speedup, lower LLC energy ratio.
The grid goes through :meth:`ExperimentContext.normalized_sweep`, so
``--jobs``, checkpoint/resume and the replay cache apply as for every
other sweep.  Models that share a workload and capacity share one LLC
replay, so the sweep costs one replay per distinct capacity, not one
per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.common import ExperimentContext, TableWriter
from repro.nvsim.published import CONFIGURATIONS
from repro.sim.results import NormalizedResult
from repro.workloads.registry import ai_benchmarks


def dominates(a: NormalizedResult, b: NormalizedResult) -> bool:
    """Strict Pareto dominance: ``a`` is no worse than ``b`` on speedup
    (maximised) and energy ratio (minimised), and better on one."""
    return (
        a.speedup >= b.speedup
        and a.energy_ratio <= b.energy_ratio
        and (a.speedup > b.speedup or a.energy_ratio < b.energy_ratio)
    )


def pareto_frontier(
    points: Sequence[NormalizedResult],
) -> List[NormalizedResult]:
    """The points no other point strictly dominates (ties all stay)."""
    return [p for p in points if not any(dominates(q, p) for q in points)]


@dataclass
class DSEResult:
    """The swept grid's shape and its simulated frontier."""

    workloads: List[str]
    n_models: int
    frontier: List[NormalizedResult]


def run(context: Optional[ExperimentContext] = None) -> DSEResult:
    """Sweep the grid and take the frontier of each (workload,
    configuration) group."""
    context = context or ExperimentContext()
    workloads = ai_benchmarks()
    frontier: List[NormalizedResult] = []
    n_models = 0
    for configuration in CONFIGURATIONS:
        sweep = context.normalized_sweep(workloads, configuration)
        n_models += len(sweep)
        for workload in workloads:
            frontier.extend(pareto_frontier(
                [by_workload[workload] for by_workload in sweep.values()]
            ))
    frontier.sort(key=lambda p: (p.workload, p.configuration, p.llc_name))
    return DSEResult(workloads=workloads, n_models=n_models, frontier=frontier)


def render(result: DSEResult) -> str:
    """The grid's size and its frontier table."""
    table = TableWriter(
        headers=["workload", "configuration", "LLC", "speedup", "energy", "ED^2P"]
    )
    for p in result.frontier:
        table.add(
            p.workload, p.configuration, p.llc_name,
            p.speedup, p.energy_ratio, p.ed2p_ratio,
        )
    n_workloads = len(result.workloads)
    return "\n".join([
        f"grid: {n_workloads} workloads x {result.n_models} models = "
        f"{n_workloads * result.n_models} cells",
        "",
        "Pareto frontier (simulated)",
        table.render(),
    ])
