"""Tests for the model/counts/result output guards."""

import dataclasses

import numpy as np
import pytest

from repro.errors import PlausibilityError
from repro.nvsim.published import published_models
from repro.sim.llc import LLCCounts
from repro.validate import guard
from repro.validate.guard import (
    check_sweep_models,
    guard_counts,
    guard_model,
    guard_result,
    guard_value,
)


def _counts(**overrides):
    """A self-consistent LLCCounts a real replay could have produced."""
    base = dict(
        capacity_bytes=2 * 1024 * 1024,
        associativity=16,
        read_lookups=100,
        read_hits=60,
        read_misses=40,
        write_accesses=30,
        write_hits=20,
        write_misses=10,
        dirty_evictions=5,
    )
    base.update(overrides)
    return LLCCounts(**base)


class TestGuardValue:
    def test_in_range_returns_value(self):
        assert guard_value("s", "f", 1.5, lo=0.0, hi=2.0) == 1.5

    def test_nan_rejected(self):
        with pytest.raises(PlausibilityError) as excinfo:
            guard_value("subject", "field", float("nan"))
        assert excinfo.value.field == "field"
        assert "finite" in excinfo.value.bound

    def test_out_of_range_names_field_and_bound(self):
        with pytest.raises(PlausibilityError) as excinfo:
            guard_value("cell X", "pulse", 5.0, lo=0.0, hi=1.0,
                        provenance="heuristic 2")
        error = excinfo.value
        assert error.field == "pulse"
        assert error.value == 5.0
        assert "[0, 1]" in error.bound
        assert "heuristic 2" in str(error)


class TestGuardModel:
    def test_all_published_models_pass(self):
        for configuration in ("fixed-capacity", "fixed-area"):
            for model in published_models(configuration):
                assert guard_model(model) is model

    def test_nan_latency_rejected(self, xue_model):
        broken = dataclasses.replace(xue_model, read_latency_s=float("nan"))
        with pytest.raises(PlausibilityError) as excinfo:
            guard_model(broken)
        assert excinfo.value.field == "read_latency_s"
        assert "Xue_S" in str(excinfo.value)

    def test_unit_mistake_rejected(self, xue_model):
        # A latency of 2.878 (seconds — ns stored as s) must trip the bound.
        broken = dataclasses.replace(xue_model, set_latency_s=2.878)
        with pytest.raises(PlausibilityError):
            guard_model(broken)

    def test_absurd_capacity_rejected(self, xue_model):
        broken = dataclasses.replace(xue_model, capacity_bytes=1 << 50)
        with pytest.raises(PlausibilityError) as excinfo:
            guard_model(broken)
        assert excinfo.value.field == "capacity_bytes"

    def test_error_carries_provenance(self, xue_model):
        broken = dataclasses.replace(xue_model, leakage_w=float("inf"))
        with pytest.raises(PlausibilityError) as excinfo:
            guard_model(broken)
        assert "published-table3" in excinfo.value.provenance


class TestGuardCounts:
    def test_consistent_counts_pass(self):
        counts = _counts()
        assert guard_counts(counts) is counts

    def test_read_split_must_sum(self):
        with pytest.raises(PlausibilityError, match="exact-sum"):
            guard_counts(_counts(read_hits=61))

    def test_write_split_must_sum(self):
        with pytest.raises(PlausibilityError, match="exact-sum"):
            guard_counts(_counts(write_hits=25))

    def test_dirty_evictions_bounded_by_fills(self):
        with pytest.raises(PlausibilityError, match="at-most-fills"):
            guard_counts(_counts(dirty_evictions=51))

    def test_negative_counter_rejected(self):
        with pytest.raises(PlausibilityError):
            guard_counts(_counts(read_hits=-1, read_misses=101))


class TestGuardResult:
    def test_real_result_passes(self, leela_session, xue_model):
        result = leela_session.run(xue_model)
        assert guard_result(result) is result

    def test_nan_runtime_rejected(self, leela_session, xue_model):
        result = leela_session.run(xue_model)
        broken = dataclasses.replace(result, runtime_s=float("nan"))
        with pytest.raises(PlausibilityError) as excinfo:
            guard_result(broken)
        assert excinfo.value.field == "runtime_s"
        assert "leela" in str(excinfo.value)

    def test_negative_energy_rejected(self, leela_session, xue_model):
        result = leela_session.run(xue_model)
        broken = dataclasses.replace(
            result,
            energy=dataclasses.replace(result.energy, leakage_energy_j=-1.0),
        )
        with pytest.raises(PlausibilityError) as excinfo:
            guard_result(broken)
        assert excinfo.value.field == "energy.leakage_energy_j"


class TestAlwaysStrict:
    def test_violations_counted_in_metrics(self):
        from repro import obs

        registry = obs.enable()
        try:
            with pytest.raises(PlausibilityError):
                guard_counts(_counts(read_hits=61))
        finally:
            obs.disable()
        assert registry.counters.get("validate.guard.violations", 0) == 1

    def test_environment_cannot_switch_the_firewall_off(
        self, monkeypatch, tmp_path, leela_session, xue_model
    ):
        """No environment setting weakens the firewall: with
        ``REPRO_VALIDATE=off`` set, a float npz column and a NaN runtime
        are still rejected."""
        from repro.errors import TraceError
        from repro.trace.io import load_npz
        from repro.validate.policy import current_policy

        monkeypatch.setenv("REPRO_VALIDATE", "off")
        path = tmp_path / "float.npz"
        np.savez(
            path,
            addresses=np.array([1.5, 2.5]),
            writes=np.zeros(2, dtype=bool),
            thread_ids=np.zeros(2, dtype=np.uint16),
            gaps=np.zeros(2, dtype=np.uint32),
        )
        with pytest.raises(TraceError, match="integer dtype"):
            load_npz(path)
        result = leela_session.run(xue_model)
        broken = dataclasses.replace(result, runtime_s=float("nan"))
        with pytest.raises(PlausibilityError, match="runtime_s"):
            guard_result(broken)
        assert current_policy().value == "strict"


class TestSweepInvariants:
    def test_fixed_capacity_requires_equal_capacity(self, xue_model):
        other = dataclasses.replace(xue_model, capacity_bytes=4 * 1024 * 1024)
        with pytest.raises(PlausibilityError, match="equal-capacity"):
            check_sweep_models([xue_model, other], "fixed-capacity")

    def test_published_sweeps_pass(self):
        from repro.nvsim.config import FIXED_AREA_BUDGET_MM2
        from repro.nvsim.sweep import CAPACITY_LADDER

        for configuration in ("fixed-capacity", "fixed-area"):
            check_sweep_models(
                published_models(configuration), configuration,
                area_budget_mm2=FIXED_AREA_BUDGET_MM2,
                min_capacity_bytes=CAPACITY_LADDER[0],
            )

    def test_fixed_area_budget_enforced(self, xue_model):
        bloated = dataclasses.replace(
            xue_model, area_mm2=20.0, capacity_bytes=8 * 1024 * 1024
        )
        with pytest.raises(PlausibilityError, match="area budget"):
            check_sweep_models(
                [bloated], "fixed-area",
                area_budget_mm2=6.548,
                min_capacity_bytes=1024 * 1024,
            )

    def test_min_capacity_exemption(self, xue_model):
        # The paper's Jan_S case: 1 MB (the smallest ladder step) is kept
        # even though its area overshoots the budget.
        jan_like = dataclasses.replace(
            xue_model, area_mm2=9.171, capacity_bytes=1024 * 1024
        )
        check_sweep_models(
            [jan_like], "fixed-area",
            area_budget_mm2=6.548,
            min_capacity_bytes=1024 * 1024,
        )

    def test_empty_sweep_is_fine(self):
        check_sweep_models([], "fixed-capacity")


def test_bounds_are_generous_over_table3():
    """Every guard ceiling sits well above the published extremes, so
    the guard can only trip on unit-scale mistakes."""
    models = published_models("fixed-capacity") + published_models("fixed-area")
    worst_latency = max(
        max(m.tag_latency_s, m.read_latency_s, m.set_latency_s, m.reset_latency_s)
        for m in models
    )
    worst_energy = max(
        max(m.hit_energy_j, m.miss_energy_j, m.write_energy_j) for m in models
    )
    assert guard.MAX_LATENCY_S > 100 * worst_latency
    # Kang_P's published write energy (375 nJ) is the extreme; an order
    # of magnitude of headroom still catches nJ-stored-as-J mistakes.
    assert guard.MAX_ENERGY_J > 10 * worst_energy
    assert guard.MAX_LEAKAGE_W > 10 * max(m.leakage_w for m in models)
