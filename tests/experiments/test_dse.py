"""Tests for the ``dse`` experiment's Pareto machinery and workload axis."""

import pytest

from repro.errors import PlanError
from repro.experiments.dse import dominates, pareto_frontier, resolve_workloads
from repro.sim.results import NormalizedResult


def _point(name, speedup, energy):
    return NormalizedResult("w", name, "c", speedup, energy, energy / speedup**2)


class TestDominance:
    def test_strict_dominance_requires_one_strict_inequality(self):
        a = _point("a", 1.0, 0.5)
        assert dominates(a, _point("b", 0.9, 0.6))
        assert dominates(a, _point("b", 1.0, 0.6))   # tie on one axis
        assert not dominates(a, _point("b", 1.0, 0.5))  # exact tie
        assert not dominates(a, _point("b", 1.1, 0.4))  # dominated

    def test_pareto_frontier_keeps_undominated_and_tied_points(self):
        best = _point("best", 1.2, 0.4)
        trade = _point("trade", 1.4, 0.6)
        loser = _point("loser", 1.1, 0.5)
        tie = _point("tie", 1.2, 0.4)
        assert pareto_frontier([best, trade, loser, tie]) == [best, trade, tie]


class TestWorkloads:
    def test_resolve_workloads_default_env_and_validation(self, monkeypatch):
        from repro.workloads.registry import ai_benchmarks

        # The environment does not pick the grid: a served job's digest
        # covers only its spec, so the grid must follow from the spec.
        monkeypatch.setenv("REPRO_DSE_WORKLOADS", "leela")
        assert resolve_workloads() == ai_benchmarks()
        assert resolve_workloads(["leela", "x264"]) == ["leela", "x264"]
        with pytest.raises(PlanError, match="fluidanimate"):
            resolve_workloads(["leela", "fluidanimate"])
