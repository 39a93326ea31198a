"""Tests for the sweep-cell fan-out (:mod:`repro.sim.parallel`)."""

import math

import pytest

from repro.errors import ExperimentError
from repro.experiments.common import ExperimentContext
from repro.obs.metrics import scoped_registry
from repro.sim.parallel import (
    FaultPolicy,
    RETRIES_ENV,
    SweepCell,
    TIMEOUT_ENV,
    default_jobs,
    resolve_jobs,
    resolve_model,
    run_cell,
    run_cells,
)


def _cell(**overrides):
    base = dict(
        workload="leela",
        configuration="fixed-capacity",
        model_names=("SRAM", "Jan_S"),
        seed=7,
        n_accesses=6000,
        n_threads=None,
        arch=None,
    )
    base.update(overrides)
    return SweepCell(**base)


class TestResolveJobs:
    def test_default_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == default_jobs() >= 1

    def test_explicit_counts_pass_through(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_jobs(-1)


class TestResolveModel:
    def test_sram_maps_to_baseline(self):
        from repro.nvsim.published import sram_baseline

        assert resolve_model("SRAM", "fixed-area") == sram_baseline("fixed-area")

    def test_published_names_resolve(self):
        assert resolve_model("Jan_S", "fixed-capacity").name == "Jan_S"


class TestRunCell:
    def test_runs_all_models(self):
        results = run_cell(_cell())
        assert set(results) == {"SRAM", "Jan_S"}
        assert results["SRAM"].workload == "leela"
        assert results["SRAM"].configuration == "fixed-capacity"

    def test_deterministic_across_calls(self):
        cell = _cell()
        first = run_cell(cell)
        second = run_cell(cell)
        assert first["Jan_S"].runtime_s == second["Jan_S"].runtime_s
        assert first["Jan_S"].counts == second["Jan_S"].counts

    def test_thread_override_changes_trace(self):
        single = run_cell(_cell())
        multi = run_cell(_cell(n_threads=4))
        assert single["SRAM"].counts != multi["SRAM"].counts


class TestRunCells:
    def test_serial_preserves_order(self):
        cells = [_cell(seed=1), _cell(seed=2)]
        results = ExperimentContext().run_cells(cells)
        assert len(results) == 2
        assert results[0]["SRAM"].counts != results[1]["SRAM"].counts

    def test_parallel_matches_serial(self):
        cells = [_cell(seed=1), _cell(seed=2, model_names=("SRAM",))]
        serial = ExperimentContext().run_cells(cells)
        parallel = run_cells(cells, jobs=2)
        assert len(parallel) == len(serial)
        for s, p in zip(serial, parallel):
            assert set(s) == set(p)
            for name in s:
                assert s[name].runtime_s == p[name].runtime_s
                assert s[name].counts == p[name].counts
                assert s[name].energy == p[name].energy

    def test_single_cell_stays_inline(self):
        # jobs > 1 with one cell must not pay pool startup.
        with scoped_registry() as registry:
            results = ExperimentContext(jobs=4).run_cells([_cell()])
        assert len(results) == 1
        assert registry.counters["experiments.cells"] == 1
        assert "parallel.cells" not in registry.counters

    def test_no_cells_start_no_pool(self):
        assert run_cells([], jobs=2) == []


class TestFaultPolicy:
    def test_defaults(self, monkeypatch):
        for env in (TIMEOUT_ENV, RETRIES_ENV):
            monkeypatch.delenv(env, raising=False)
        policy = FaultPolicy.from_env()
        assert policy.cell_timeout_s is None
        assert policy.max_retries == 2
        assert policy.backoff_s == 0.1

    def test_env_values_parsed(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "45.5")
        monkeypatch.setenv(RETRIES_ENV, "5")
        policy = FaultPolicy.from_env()
        assert policy.cell_timeout_s == 45.5
        assert policy.max_retries == 5

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "45.5")
        monkeypatch.setenv(RETRIES_ENV, "5")
        policy = FaultPolicy.from_env(cell_timeout_s=2.0, max_retries=0)
        assert policy.cell_timeout_s == 2.0
        assert policy.max_retries == 0

    def test_garbage_env_rejected_loudly(self, monkeypatch):
        """A typo'd env var must not be silently ignored."""
        monkeypatch.setenv(TIMEOUT_ENV, "soon")
        with pytest.raises(ExperimentError):
            FaultPolicy.from_env()

    def test_invalid_values_rejected(self, monkeypatch):
        for env in (TIMEOUT_ENV, RETRIES_ENV):
            monkeypatch.delenv(env, raising=False)
        with pytest.raises(ExperimentError):
            FaultPolicy.from_env(max_retries=-1)
        with pytest.raises(ExperimentError):
            FaultPolicy.from_env(cell_timeout_s=0.0)

    @pytest.mark.parametrize("raw", ["2.5", "-0.5", "inf", "nan", "-1"])
    def test_retries_must_be_a_whole_number(self, raw, monkeypatch):
        """A fractional count must not be truncated (2.5 -> 2, -0.5 -> 0)
        and inf or nan must not escape as untyped errors."""
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        monkeypatch.setenv(RETRIES_ENV, raw)
        with pytest.raises(ExperimentError, match=RETRIES_ENV):
            FaultPolicy.from_env()

    def test_whole_float_retries_are_an_int_count(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        monkeypatch.setenv(RETRIES_ENV, "3.0")
        retries = FaultPolicy.from_env().max_retries
        assert retries == 3 and isinstance(retries, int)

    @pytest.mark.parametrize("raw", ["inf", "nan", "-inf", "0"])
    def test_timeout_must_be_finite_and_positive(self, raw, monkeypatch):
        monkeypatch.delenv(RETRIES_ENV, raising=False)
        monkeypatch.setenv(TIMEOUT_ENV, raw)
        with pytest.raises(ExperimentError, match=TIMEOUT_ENV):
            FaultPolicy.from_env()

    @pytest.mark.parametrize("timeout", [math.inf, math.nan])
    def test_policy_is_checked_when_built(self, timeout):
        """Built directly, an infinite timeout would fail every pool cell
        ("timestamp out of range") and nan would time each one out."""
        with pytest.raises(ExperimentError, match="--cell-timeout"):
            FaultPolicy(cell_timeout_s=timeout, max_retries=0)
        with pytest.raises(ExperimentError, match="--cell-retries"):
            FaultPolicy(max_retries=2.5)
