"""Tests for the repro-cli command line."""

import pytest

from repro.cli import build_parser, main
from repro.trace.io import save_npz
from repro.workloads.generators import generate_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_source_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["characterize", "--workload", "leela", "--trace-file", "x.npz"]
            )

    def test_validation_cannot_be_weakened(self):
        # The firewall is always strict: there is no --validate flag.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--validate", "off", "workloads"])
        assert exit_info.value.code == 2


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "deepsjeng" in out
        assert "NPB3.3.1" in out

    def test_characterize_workload(self, capsys):
        assert main(["characterize", "--workload", "leela",
                     "--accesses", "5000"]) == 0
        out = capsys.readouterr().out
        assert "write_global_entropy" in out
        assert "5,000" in out

    def test_characterize_trace_file(self, capsys, tmp_path):
        trace = generate_trace("tonto", n_accesses=3000)
        path = tmp_path / "t.npz"
        save_npz(trace, path)
        assert main(["characterize", "--trace-file", str(path)]) == 0
        assert "total_reads" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main([
            "simulate", "--workload", "tonto", "--accesses", "8000",
            "--llc", "Xue_S",
        ]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "Xue_S vs SRAM" in out

    def test_model(self, capsys):
        assert main(["model", "--cell", "Zhang", "--capacity-mb", "2"]) == 0
        out = capsys.readouterr().out
        assert "Zhang_R" in out
        assert "leakage" in out

    def test_lifetime(self, capsys):
        assert main([
            "lifetime", "--workload", "gobmk", "--accesses", "10000",
            "--llc", "Kang_P",
        ]) == 0
        out = capsys.readouterr().out
        assert "unleveled lifetime" in out

    def test_lifetime_unlimited_for_sram(self, capsys):
        assert main([
            "lifetime", "--workload", "tonto", "--accesses", "8000",
            "--llc", "SRAM",
        ]) == 0
        assert "unlimited" in capsys.readouterr().out

    def test_techniques(self, capsys):
        assert main([
            "techniques", "--workload", "gobmk", "--accesses", "15000",
            "--llc", "Kang_P",
        ]) == 0
        out = capsys.readouterr().out
        assert "early-write-termination" in out

    def test_unknown_llc_is_clean_error(self, capsys):
        assert main([
            "simulate", "--workload", "tonto", "--accesses", "5000",
            "--llc", "Bogus_X",
        ]) == 1
        err = capsys.readouterr().err
        assert "error[MODEL]:" in err
        assert "Traceback" not in err

    def test_serve_on_a_held_port_is_a_serve_error(self, tmp_path):
        """Run as a process: ``serve`` installs signal handlers."""
        import os
        import socket
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--port", str(port), "--dir", str(tmp_path / "state")],
                env=env, capture_output=True, text=True, timeout=60,
            )
        assert proc.returncode == 5, proc.stderr
        assert f"error[SERVE]: cannot bind 127.0.0.1:{port}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_serve_without_workers_is_a_serve_error(self, tmp_path):
        """Typed like ``--queue-max 0``: exit 5, ``error[SERVE]``."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "0", "--dir", str(tmp_path / "state")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 5, proc.stderr
        assert "error[SERVE]: serve workers must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.serial
class TestFleetCommands:
    """The client commands against a fleet, reached through its router."""

    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        from repro.serve import InProcessFleet
        from repro.sim.replay_cache import CACHE_DIR_ENV

        root = tmp_path_factory.mktemp("cli-fleet")
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(CACHE_DIR_ENV, str(root / "replay"))
            with InProcessFleet(shards=2, root=str(root / "fleet")) as fleet:
                yield fleet

    def test_submit_through_the_router_prints_the_render(
        self, fleet, capsys
    ):
        assert main([
            "submit", "--url", fleet.url, "--experiment", "table2",
            "--scale", "0.02", "--wait",
        ]) == 0
        out = capsys.readouterr().out
        assert "Table II — NVM cell parameters" in out

    def test_submit_and_fetch_end_the_render_with_a_newline(
        self, fleet, capsys
    ):
        """Table II's render ends in ``|``: the next line must not
        start on the table's last row."""
        assert main([
            "submit", "--url", fleet.url, "--experiment", "table2",
            "--scale", "0.02", "--wait",
        ]) == 0
        out = capsys.readouterr().out
        assert out.endswith("|\n")
        job_id = out.split()[1]
        assert main(["fetch", "--url", fleet.url, job_id]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Table II\n") and out.endswith("|\n")

    def test_status_through_the_router_adds_up_the_shards(
        self, fleet, capsys
    ):
        assert main(["status", "--url", fleet.url]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"service {fleet.url}: ok  workers=2  ")

    def test_fleet_status_prints_one_line_per_shard(self, fleet, capsys):
        assert main(["fleet", "status", "--url", fleet.url]) == 0
        out = capsys.readouterr().out
        shard_lines = [
            line for line in out.splitlines()
            if line.lstrip().startswith("shard ")
        ]
        assert len(shard_lines) == len(fleet.shard_urls) == 2
        for url, line in zip(fleet.shard_urls, shard_lines):
            assert url in line
            assert "up/in-ring" in line
