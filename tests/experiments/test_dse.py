"""Tests for the ``dse`` experiment's Pareto machinery."""

from repro.experiments.dse import dominates, pareto_frontier
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


class TestFrontier:
    def test_keeps_every_frontier_cell(self, full_context):
        """Chung_S and Umeki_S trade speedup for energy on lu at full
        scale (0.978, 0.231) vs (0.976, 0.117), so both are on the
        fixed-area frontier."""
        sweep = full_context.normalized_sweep(["lu"], "fixed-area")
        frontier = pareto_frontier(
            [by_workload["lu"] for by_workload in sweep.values()]
        )
        names = {point.llc_name for point in frontier}
        assert {"Chung_S", "Umeki_S"} <= names
