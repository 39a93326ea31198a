"""Tests for the metrics registry (:mod:`repro.obs.metrics`)."""

import json
import pickle

from repro.experiments.common import ExperimentContext
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.sim.parallel import SweepCell, run_cells


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


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.counter_add("events")
        registry.counter_add("events", 4)
        assert registry.counters["events"] == 5

    def test_gauges_take_latest_value(self):
        registry = MetricsRegistry()
        registry.gauge_set("capacity_mb", 2.0)
        registry.gauge_set("capacity_mb", 8.0)
        assert registry.gauges["capacity_mb"] == 8.0

    def test_timer_statistics(self):
        registry = MetricsRegistry()
        for elapsed in (0.010, 0.030, 0.020):
            registry.timer_record("cell", elapsed)
        stats = registry.timers["cell"]
        assert stats.count == 3
        assert stats.min_s == 0.010
        assert stats.max_s == 0.030
        assert abs(stats.mean_s - 0.020) < 1e-12

    def test_timer_buckets_are_log2_ms(self):
        registry = MetricsRegistry()
        registry.timer_record("t", 0.0005)  # 0.5 ms -> bucket 0
        registry.timer_record("t", 0.003)   # 3 ms   -> bucket 2
        assert registry.timers["t"].buckets == {0: 1, 2: 1}

    def test_snapshot_is_json_and_pickle_ready(self):
        registry = MetricsRegistry()
        registry.counter_add("a")
        registry.gauge_set("g", 1.5)
        registry.timer_record("t", 0.01)
        with registry.span("s"):
            pass
        snap = registry.snapshot()
        assert snap["schema"] == metrics.SNAPSHOT_SCHEMA
        assert json.loads(json.dumps(snap)) == snap
        assert pickle.loads(pickle.dumps(snap)) == snap


class TestSpans:
    def test_nesting_records_paths(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        paths = [record["path"] for record in registry.spans]
        assert paths == ["outer/inner", "outer"]  # completion order
        assert [r["name"] for r in registry.spans] == ["inner", "outer"]

    def test_sibling_after_nested_is_top_level(self):
        registry = MetricsRegistry()
        with registry.span("a"):
            with registry.span("b"):
                pass
        with registry.span("c"):
            pass
        assert registry.spans[-1]["path"] == "c"

    def test_spans_feed_timers_under_plain_name(self):
        registry = MetricsRegistry()
        with registry.span("stage"):
            with registry.span("stage"):
                pass
        assert registry.timers["stage"].count == 2

    def test_max_spans_cap_counts_drops(self):
        registry = MetricsRegistry(max_spans=2)
        for _ in range(5):
            with registry.span("s"):
                pass
        assert len(registry.spans) == 2
        assert registry.counters["obs.spans_dropped"] == 3
        assert registry.timers["s"].count == 5  # timers keep aggregating

    def test_trace_file_gets_one_json_line_per_span(self, tmp_path):
        trace_path = tmp_path / "spans.jsonl"
        registry = MetricsRegistry(trace_path=str(trace_path))
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        registry.close()
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert [r["path"] for r in records] == ["outer/inner", "outer"]
        assert all(r["pid"] == registry.pid for r in records)


class TestModuleHelpers:
    def test_disabled_helpers_are_silent_no_ops(self):
        assert not metrics.enabled()
        metrics.counter_add("x")
        metrics.gauge_set("x", 1.0)
        metrics.timer_record("x", 0.1)
        with metrics.span("x"):
            pass
        metrics.merge_snapshot({"counters": {"x": 1}})
        assert metrics.get_registry() is None

    def test_disabled_span_is_a_shared_singleton(self):
        assert metrics.span("a") is metrics.span("b")

    def test_enable_routes_helpers_to_registry(self):
        registry = metrics.enable()
        metrics.counter_add("hit", 2)
        with metrics.span("stage"):
            pass
        assert registry.counters["hit"] == 2
        assert registry.timers["stage"].count == 1
        metrics.disable()
        assert not metrics.enabled()

    def test_scoped_registry_restores_previous(self):
        outer = metrics.enable()
        with scoped_registry() as inner:
            metrics.counter_add("seen")
            assert metrics.get_registry() is inner
        assert metrics.get_registry() is outer
        assert "seen" in inner.counters
        assert "seen" not in outer.counters


class TestMergeSnapshot:
    def test_merge_semantics(self):
        worker = MetricsRegistry()
        worker.counter_add("cells", 3)
        worker.gauge_set("last", 2.0)
        worker.timer_record("cell", 0.040)
        with worker.span("cell_span"):
            pass

        parent = MetricsRegistry()
        parent.counter_add("cells", 1)
        parent.gauge_set("last", 1.0)
        parent.timer_record("cell", 0.010)

        # Simulate the pool boundary: the snapshot crosses as a pickle.
        parent.merge_snapshot(pickle.loads(pickle.dumps(worker.snapshot())))

        assert parent.counters["cells"] == 4          # counters add
        assert parent.gauges["last"] == 2.0           # last write wins
        stats = parent.timers["cell"]
        assert stats.count == 2
        assert stats.min_s == 0.010
        assert stats.max_s == 0.040
        assert any(r["name"] == "cell_span" for r in parent.spans)

    def test_merge_respects_span_cap(self):
        worker = MetricsRegistry()
        for _ in range(5):
            with worker.span("s"):
                pass
        parent = MetricsRegistry(max_spans=2)
        parent.merge_snapshot(worker.snapshot())
        assert len(parent.spans) == 2
        assert parent.counters["obs.spans_dropped"] == 3


class TestProcessBoundary:
    def test_run_cells_merges_worker_metrics(self):
        """The full pool path: workers collect, parent ends up with the
        aggregate — the contract ``--jobs N --metrics`` relies on."""
        cells = [_cell(seed=1), _cell(seed=2), _cell(seed=3)]
        registry = metrics.enable()
        try:
            results = run_cells(cells, jobs=2)
        finally:
            metrics.disable()

        assert len(results) == 3
        assert registry.counters["parallel.cells"] == 3
        assert registry.counters["experiments.cells"] == 3
        worker_timers = {
            name: stats
            for name, stats in registry.timers.items()
            if name.startswith("parallel.worker.")
        }
        assert worker_timers, "per-worker cell timers must cross the pool"
        assert sum(s.count for s in worker_timers.values()) == 3
        # Replay spans recorded inside workers must land in the parent.
        assert any(r["name"] == "sim.llc_replay" for r in registry.spans)

    def test_parallel_results_identical_with_metrics_on(self):
        cells = [_cell(seed=5)]
        plain = ExperimentContext().run_cells(cells)
        metrics.enable()
        try:
            observed = run_cells(cells, jobs=2)
        finally:
            metrics.disable()
        assert plain[0]["Jan_S"].counts == observed[0]["Jan_S"].counts
        assert plain[0]["Jan_S"].runtime_s == observed[0]["Jan_S"].runtime_s
