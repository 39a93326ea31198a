"""Tests for the experiment-layer infrastructure."""

import dataclasses

import pytest

from repro.errors import ExperimentError
from repro.experiments.common import ExperimentContext, TableWriter
from repro.nvsim.published import sram_baseline
from repro.workloads.profiles import profile


class TestExperimentContext:
    def test_trace_cached(self):
        context = ExperimentContext(scale=0.05)
        a = context.trace("leela")
        assert context.trace("leela") is a

    def test_scale_shortens(self):
        short = ExperimentContext(scale=0.05).trace("leela")
        full = ExperimentContext(scale=1.0).trace("leela")
        assert len(short) < len(full)

    def test_scale_floor(self):
        # Even tiny scales keep enough accesses to simulate.
        trace = ExperimentContext(scale=0.001).trace("leela")
        assert len(trace) >= 5000

    def test_invalid_scale_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentContext(scale=0.0)
        with pytest.raises(ExperimentError):
            ExperimentContext(scale=1.5)

    def test_session_cached(self):
        context = ExperimentContext(scale=0.05)
        assert context.session("leela") is context.session("leela")

    def test_profile_thread_count_is_the_default_trace(self):
        context = ExperimentContext(scale=0.05)
        threads = profile("ft").n_threads
        assert context.trace("ft", n_threads=threads) is context.trace("ft")
        assert context.session("ft", n_threads=threads) is context.session("ft")

    def test_sessions_share_replays_on_cache_keys(self):
        """A timing constant shares both replays, an MLP ceiling only the
        private one; each session still prices with its own arch."""
        context = ExperimentContext(scale=0.05)
        model = sram_baseline()
        default = context.session("leela")
        slower = context.session(
            "leela", arch=dataclasses.replace(context.arch, base_cpi=0.8)
        )
        capped = context.session(
            "leela", arch=dataclasses.replace(context.arch, max_mlp=3.0)
        )
        assert slower.private is default.private is capped.private
        assert slower.counts_for(model) is default.counts_for(model)
        assert capped.counts_for(model) is not default.counts_for(model)
        assert slower.run(model).runtime_s > default.run(model).runtime_s

    @pytest.mark.parametrize(
        "override",
        [dict(seed=7), dict(n_threads=8), dict(n_accesses=6000)],
        ids=["seed", "threads", "length"],
    )
    def test_override_cell_leaves_nothing_behind(self, override):
        """A cell off the default key (a seed point, a core count) runs
        on its own session and keeps no trace, session or replay."""
        context = ExperimentContext(scale=0.05)
        cell = context.cell("ft", "fixed-area", ("SRAM",), **override)
        (results,) = context.run_cells([cell])
        assert results["SRAM"].workload == "ft"
        assert context._traces == context._sessions == context._replays == {}
        assert context.trace("ft", **override) is not context.trace(
            "ft", **override
        )
        assert context.session("ft", **override) is not context.session(
            "ft", **override
        )
        assert context._traces == context._sessions == context._replays == {}

    def test_normalized_sweep_structure(self):
        context = ExperimentContext(scale=0.05)
        results = context.normalized_sweep(
            ["leela"], "fixed-capacity", llc_names=["Xue_S", "SRAM"]
        )
        assert set(results) == {"Xue_S", "SRAM"}
        assert results["SRAM"]["leela"].speedup == pytest.approx(1.0)


class TestTableWriter:
    def test_render_markdown(self):
        table = TableWriter(headers=["a", "b"])
        table.add("x", 1.23456)
        text = table.render()
        assert "| a" in text
        assert "1.235" in text  # 3-decimal float formatting

    def test_row_width_checked(self):
        table = TableWriter(headers=["a", "b"])
        with pytest.raises(ExperimentError):
            table.add("only-one")

    def test_empty_table_renders_headers(self):
        table = TableWriter(headers=["one", "two"])
        assert "one" in table.render()
