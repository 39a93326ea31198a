"""A flag's default is a constant, never the environment.

The service and run flags (``serve``/``router``/client ``--url``,
``repro-experiments --metrics``/``--trace-file``) take their defaults
from module constants.  Each variable below once supplied one of those
defaults; set to values that used to be rejected or acted on, they must
change nothing.
"""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.experiments import runner
from repro.serve import (
    DEFAULT_HOST,
    DEFAULT_MAX_QUEUED,
    DEFAULT_PORT,
    DEFAULT_URL,
    DEFAULT_WORKERS,
    ExperimentServer,
    ServeClient,
)


@pytest.fixture
def retired_variables(monkeypatch, tmp_path):
    values = {
        "REPRO_SERVE_HOST": "junk-host",
        "REPRO_SERVE_PORT": "junk",
        "REPRO_SERVE_WORKERS": "0",
        "REPRO_SERVE_QUEUE_MAX": "junk",
        "REPRO_SERVE_DIR": str(tmp_path / "state"),
        "REPRO_SERVE_URL": "http://junk:1",
        "REPRO_SERVE_SHARDS": "http://127.0.0.1:1",
        "REPRO_SERVE_STORE_DIR": str(tmp_path / "store"),
        "REPRO_METRICS": "1",
        "REPRO_TRACE_FILE": str(tmp_path / "t.jsonl"),
    }
    for name, value in values.items():
        monkeypatch.setenv(name, value)


def test_retired_variables_change_nothing(
    retired_variables, monkeypatch, tmp_path, capsys
):
    server = ExperimentServer()
    assert (server.host, server.port) == (DEFAULT_HOST, DEFAULT_PORT)
    assert server.queue.max_queued == DEFAULT_MAX_QUEUED
    assert server.pool.workers == DEFAULT_WORKERS
    assert server.state_dir is None and server.store is None
    assert ServeClient().url == DEFAULT_URL

    assert cli_main(["router"]) == 5
    assert "error[SERVE]" in capsys.readouterr().err

    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    assert runner.main(["--scale", "0.05", "--only", "table2"]) == 0
    assert list(run.rglob("*")) == []
    assert not (tmp_path / "t.jsonl").exists()
