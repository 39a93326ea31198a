"""Fault injection: SIGKILL a checkpointed run mid-sweep, then resume.

The end-to-end contract of the tentpole: a run killed at an arbitrary
point restarts with ``--resume RUN_DIR``, skips every journaled cell,
and produces a report byte-identical (modulo timing lines) to an
uninterrupted run.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

# Fault-injection tests mutate process-global state (env hooks,
# the default replay cache, child processes, signals): CI runs
# them in the dedicated non-parallel `serial` job.
pytestmark = pytest.mark.serial

REPO = Path(__file__).resolve().parents[2]

#: Strips wall-clock noise: stdout "[1.2s]" stamps and the report's
#: "_(generated in 1.2s)_" suffixes.
_TIMING = re.compile(r"\[[0-9.]+s\]|_\(generated in [0-9.]+s\)_")


def _normalize(text: str) -> str:
    return _TIMING.sub("", text)


def _run(args, env, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *args],
        env=env,
        cwd=str(REPO),
        capture_output=True,
        text=True,
        timeout=180,
        **kwargs,
    )


@pytest.fixture
def run_env(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO / 'src'}{os.pathsep}{REPO}"
    env["REPRO_CACHE_DIR"] = str(tmp_path / "replay-cache")
    env.pop("REPRO_FAULT_HOOK", None)
    return env


def _journal_lines(path: Path) -> int:
    """Newline-terminated journal lines.  A journal line (~13-15 KB at
    this scale) is larger than a write buffer, so a reader can see one
    half-written; only a terminated line is a journaled cell."""
    try:
        return path.read_text().count("\n")
    except FileNotFoundError:
        return 0


class TestKillAndResume:
    def test_sigkill_mid_run_then_resume_matches_uninterrupted(
        self, tmp_path, run_env
    ):
        args = ["--scale", "0.1", "--only", "figure1", "--jobs", "2"]

        reference = _run(args + ["--write", str(tmp_path / "ref.md")], run_env)
        assert reference.returncode == 0, reference.stderr

        # Victim: paced by the sleepy hook so the kill lands mid-sweep.
        run_dir = tmp_path / "run"
        victim_env = dict(run_env)
        victim_env["REPRO_FAULT_HOOK"] = "tests.faults.hooks:sleepy"
        victim_env["REPRO_FAULT_SLEEP"] = "0.2"
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", *args,
             "--run-dir", str(run_dir), "--write", str(tmp_path / "dead.md")],
            env=victim_env,
            cwd=str(REPO),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # its own process group: workers die too
        )
        journal = run_dir / "checkpoint.jsonl"
        deadline = time.time() + 120
        try:
            while _journal_lines(journal) < 3:
                assert victim.poll() is None, "victim finished before the kill"
                assert time.time() < deadline, "victim never journaled 3 cells"
                time.sleep(0.05)
        finally:
            try:
                os.killpg(victim.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        victim.wait(timeout=30)
        assert victim.returncode != 0  # killed, not completed

        journaled = _journal_lines(journal)
        assert journaled >= 3
        for line in journal.read_text().splitlines()[:-1]:
            json.loads(line)  # all but a possibly-torn tail parse cleanly

        resumed = _run(
            args + ["--resume", str(run_dir), "--write", str(tmp_path / "final.md")],
            run_env,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming from" in resumed.stdout
        skipped = re.search(r"checkpoint: (\d+) cells skipped", resumed.stdout)
        assert skipped is not None and int(skipped.group(1)) >= 3

        final = (tmp_path / "final.md").read_text()
        ref = (tmp_path / "ref.md").read_text()
        assert _normalize(final) == _normalize(ref)

        # A worker killed mid-store may orphan a fresh *.tmp in the
        # replay cache; it must be sweepable and never read as data.
        from repro.sim.replay_cache import ReplayCache

        cache = ReplayCache(root=Path(run_env["REPRO_CACHE_DIR"]), enabled=True)
        cache.sweep_stale_tmp(max_age_s=0.0)
        assert not list(Path(run_env["REPRO_CACHE_DIR"]).glob("*.tmp"))

    def test_fresh_run_dir_discards_stale_journal(self, tmp_path, run_env):
        """--run-dir (not --resume) must not trust a leftover journal."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "checkpoint.jsonl").write_text('{"check":"bogus"}\n')
        result = _run(
            ["--scale", "0.05", "--only", "table5", "--run-dir", str(run_dir)],
            run_env,
        )
        assert result.returncode == 0, result.stderr
        assert "resuming from" not in result.stdout
