"""Summary rendering + the observability CLI surface, end to end."""

import json

import pytest

from repro.obs.manifest import MANIFEST_NAME, METRICS_NAME, build_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_summary
from repro.sim.replay_cache import CACHE_DIR_ENV, reset_default_cache


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Point the replay cache at a private directory for CLI runs."""
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
    reset_default_cache()
    yield cache_dir
    monkeypatch.delenv(CACHE_DIR_ENV)
    reset_default_cache()


class TestRenderSummary:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter_add("replay_cache.hits", 3)
        registry.counter_add("replay_cache.misses", 1)
        registry.counter_add("sim.llc.read_lookups", 1000)
        registry.counter_add("sim.llc.read_hits", 250)
        registry.timer_record("parallel.worker.1234.cell", 0.05)
        registry.gauge_set("nvsim.fixed_area.capacity_mb.Kang", 8.0)
        with registry.span("experiment.table5"):
            pass
        return registry.snapshot()

    def test_headline_rates(self):
        text = render_summary(self._snapshot())
        assert "replay-cache hit rate: 75.0% (3 hits / 1 misses)" in text
        assert "aggregate LLC demand hit rate: 25.0%" in text

    def test_sections_present(self):
        text = render_summary(self._snapshot())
        assert "per-worker cell timings:" in text
        assert "1234" in text
        assert "experiment.table5" in text
        assert "nvsim.fixed_area.capacity_mb.Kang" in text

    def test_manifest_header(self):
        manifest = build_manifest({"scale": 0.5, "jobs": 2})
        text = render_summary(self._snapshot(), manifest)
        assert "config digest: " + manifest["config_digest"] in text
        assert "scale=0.5" in text

    def test_empty_snapshot_renders(self):
        assert "no metrics recorded" in render_summary(
            MetricsRegistry().snapshot()
        )


class TestExperimentsCliMetrics:
    """``repro-experiments --metrics`` writes run files; ``metrics-summary``
    renders them — the acceptance path of the obs subsystem."""

    def _run(self, tmp_path, extra=()):
        from repro.experiments import runner

        report = tmp_path / "results" / "report.md"
        report.parent.mkdir()
        argv = [
            "--scale", "0.05", "--only", "table5",
            "--write", str(report), "--metrics", *extra,
        ]
        assert runner.main(argv) == 0
        return report.parent

    def test_metrics_run_writes_manifest_beside_report(
        self, tmp_path, isolated_cache, capsys
    ):
        out_dir = self._run(tmp_path)
        assert (out_dir / MANIFEST_NAME).is_file()
        assert (out_dir / METRICS_NAME).is_file()
        manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
        assert manifest["settings"]["only"] == "table5"
        assert manifest["settings"]["scale"] == 0.05
        snapshot = json.loads((out_dir / METRICS_NAME).read_text())
        assert snapshot["counters"]["sim.private.accesses"] > 0
        assert snapshot["counters"]["sim.llc.accesses"] > 0
        assert any(s["name"] == "experiment.table5" for s in snapshot["spans"])
        stdout = capsys.readouterr().out
        assert "run manifest written to" in stdout

    def test_metrics_summary_renders_saved_run(
        self, tmp_path, isolated_cache, capsys
    ):
        from repro.experiments import runner

        out_dir = self._run(tmp_path)
        capsys.readouterr()  # drop the run's own output
        assert runner.main(["metrics-summary", str(out_dir)]) == 0
        text = capsys.readouterr().out
        assert "replay-cache hit rate:" in text
        assert "experiment.table5" in text
        assert "config digest:" in text

    def test_trace_file_streams_spans(self, tmp_path, isolated_cache, capsys):
        trace_path = tmp_path / "spans.jsonl"
        self._run(tmp_path, extra=["--trace-file", str(trace_path)])
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        assert any(r["name"] == "experiment.table5" for r in records)
        assert all({"name", "path", "elapsed_s", "pid"} <= set(r) for r in records)

    def test_metrics_summary_missing_dir_fails_cleanly(self, tmp_path, capsys):
        from repro.experiments import runner

        assert runner.main(["metrics-summary", str(tmp_path / "nowhere")]) == 1
        err = capsys.readouterr().err
        assert "error[" in err
        assert "Traceback" not in err

    def test_metrics_off_leaves_no_run_files(self, tmp_path, isolated_cache, capsys):
        from repro.experiments import runner

        report = tmp_path / "report.md"
        assert runner.main(
            ["--scale", "0.05", "--only", "table2", "--write", str(report)]
        ) == 0
        assert report.is_file()
        assert not (tmp_path / MANIFEST_NAME).exists()
        assert not (tmp_path / METRICS_NAME).exists()


class TestTaskCliMetrics:
    def test_repro_cli_metrics_prints_summary_to_stderr(self, capsys):
        from repro import cli

        assert cli.main(
            ["--metrics", "simulate", "--workload", "leela", "--accesses", "6000"]
        ) == 0
        captured = capsys.readouterr()
        assert "speedup" in captured.out
        assert "counters:" in captured.err
        assert "sim.llc.accesses" in captured.err

    def test_repro_cli_without_metrics_is_silent_on_stderr(self, capsys):
        from repro import cli

        assert cli.main(["workloads"]) == 0
        assert capsys.readouterr().err == ""
