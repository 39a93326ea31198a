"""Tests for the run-everything CLI."""

import io

import pytest

from repro.experiments import runner


class TestRunAll:
    def test_single_experiment(self):
        stream = io.StringIO()
        runner.run_all(scale=0.05, only="table2", stream=stream)
        output = stream.getvalue()
        assert "Table II" in output
        assert "Kang_P" in output

    def test_report_written(self, tmp_path):
        stream = io.StringIO()
        path = tmp_path / "report.md"
        runner.run_all(
            scale=0.05, only="table3", stream=stream, write_path=str(path)
        )
        report = path.read_text()
        assert report.startswith("# NVM-LLC reproduction")
        assert "Table III" in report
        assert str(path) in stream.getvalue()

    def test_experiment_names_registered(self):
        assert set(runner.EXPERIMENTS) == {
            "table2",
            "table3",
            "table5",
            "table6",
            "figure1",
            "figure2",
            "figure4",
            "coresweep",
            "lifetime",
            "techniques",
            "compression",
            "sensitivity",
        }


class TestMain:
    def test_cli_only_flag(self, capfd):
        # capfd (not capsys): run_all's default stream binds sys.stdout
        # at import time, so capture must happen at the fd level.
        assert runner.main(["--scale", "0.05", "--only", "table2"]) == 0
        assert "Table II" in capfd.readouterr().out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            runner.main(["--only", "table9"])

    def test_validation_cannot_be_weakened(self):
        # The firewall is always strict: there is no --validate flag.
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["--only", "table2", "--validate", "off"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("timeout", ["inf", "nan"])
    def test_non_finite_cell_timeout_fails_before_any_cell(
        self, timeout, capfd, monkeypatch
    ):
        """Reaching the pool, an infinite timeout would fail every cell
        with an OverflowError and nan would time each one out: both are
        config errors, raised before the first cell runs."""
        from repro.errors import ExperimentError
        from repro.experiments.common import ExperimentContext

        def no_cell(self, cell):
            raise AssertionError(f"cell {cell.workload} ran")

        monkeypatch.setattr(ExperimentContext, "run_cell", no_cell)
        code = runner.main([
            "--scale", "0.05", "--only", "figure1", "--jobs", "2",
            "--cell-timeout", timeout,
        ])
        captured = capfd.readouterr()
        assert code == ExperimentError.exit_code
        assert "error[EXPERIMENT]" in captured.err
        assert "--cell-timeout" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_unwritable_replay_cache_does_not_change_the_run(
        self, capfd, monkeypatch, tmp_path
    ):
        """A REPRO_CACHE_DIR that cannot be created costs caching, not
        the run: same output as with a working cache, one warning."""
        import re

        from repro.sim.replay_cache import CACHE_DIR_ENV, reset_default_cache

        blocked = tmp_path / "a-file"
        blocked.write_text("x")
        runs = []
        try:
            for cache_dir in (tmp_path / "cache", blocked / "cache"):
                monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
                reset_default_cache()
                assert runner.main(["--scale", "0.05", "--only", "table5"]) == 0
                runs.append(capfd.readouterr())
        finally:
            reset_default_cache()
        working, blocked_run = (
            re.sub(r"\[[0-9.]+s\]", "", run.out) for run in runs
        )
        assert any((tmp_path / "cache").glob("*.pkl"))  # the cache was in use
        assert blocked_run == working
        assert runs[1].err.count("warning: replay_cache") == 1
        assert "Traceback" not in runs[1].err


def test_module_entry_point_runs_without_runtime_warning(tmp_path):
    """``python -m repro.experiments.runner`` must not find the runner
    already imported by its package (runpy warns on stderr if so)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "replay-cache")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.experiments.runner",
            "--scale", "0.05", "--only", "table2",
        ],
        env=env,
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Table II" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr
