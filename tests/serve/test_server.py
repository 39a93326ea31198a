"""HTTP endpoint tests for the experiment service (in-process daemon)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServeError
from repro.serve import ExperimentServer, ServeClient
from repro.serve.jobs import JobSpec, JobState


class TestEndpoints:
    def test_healthz(self, client, running_server):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["queue_bound"] == 64
        assert health["uptime_s"] >= 0
        assert set(health["queue"]) == {
            s.value for s in JobState
        }
        assert "entries" in health["cache"]

    def test_healthz_reports_the_replay_cache_without_sweeping_it(
        self, client, monkeypatch, tmp_path
    ):
        """A health probe reads the process's replay cache; it neither
        opens a new one (whose open sweeps temp files) nor mutates it."""
        import os
        import time

        from repro.sim.replay_cache import (
            CACHE_DIR_ENV,
            default_cache,
            reset_default_cache,
        )

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        reset_default_cache()
        try:
            cache = default_cache()
            cache.root.mkdir(parents=True)
            orphan = cache.root / "orphan.tmp"
            orphan.write_bytes(b"partial")
            os.utime(orphan, (time.time() - 3600, time.time() - 3600))
            stats = client.health()["cache"]
            assert stats["root"] == str(cache.root)
            assert stats["tmp_files"] == 1
            assert orphan.exists()
        finally:
            reset_default_cache()

    def test_metrics_is_an_obs_snapshot(self, client):
        snapshot = client.metrics()
        assert "counters" in snapshot and "gauges" in snapshot

    def test_submit_poll_fetch(self, client):
        response = client.submit("table2", scale=0.02, seed=3)
        assert response["deduped"] is False
        job = response["job"]
        record = client.wait(job["id"], timeout_s=120)
        assert record["state"] == "done"
        payload = client.result(job["id"])
        assert payload["experiment"] == "table2"
        assert "Table II" in payload["render"]
        assert client.metrics()["counters"]["serve.jobs.executed"] == 1

    def test_dse_is_an_ordinary_job(self, client):
        from repro.experiments.common import ExperimentContext
        from repro.experiments.runner import run_experiment

        job = client.submit("dse", scale=0.05)["job"]
        assert job["spec"]["experiment"] == "dse"
        assert job["priority"] == 0
        assert client.wait(job["id"], timeout_s=120)["state"] == "done"
        _, render, _ = run_experiment("dse", ExperimentContext(scale=0.05))
        assert client.result(job["id"])["render"] == render

    def test_submit_rejects_bad_specs_with_400(self, client):
        for body, fragment in [
            ({"experiment": "tabel2"}, "table2"),  # did-you-mean
            ({"experiment": "table2", "scal": 1}, "scale"),
            ({"experiment": "table2", "scale": 2.0}, "scale"),
        ]:
            with pytest.raises(ServeError) as excinfo:
                client._json("POST", "/jobs", body)
            assert excinfo.value.http_status == 400
            assert fragment in str(excinfo.value)

    def test_submit_requires_json_object(self, client):
        import urllib.error
        import urllib.request

        for raw in (b"", b"[1, 2]", b"{not json"):
            request = urllib.request.Request(
                client.url + "/jobs", data=raw, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
            assert b"JSON" in excinfo.value.read()

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.status("job-nope")
        assert excinfo.value.http_status == 404

    def test_result_of_pending_job_is_409(self, running_server, client):
        running_server.queue.pause_dispatch()  # keep it queued
        job = client.submit("table3", scale=0.02, seed=3)["job"]
        with pytest.raises(ServeError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.http_status == 409

    def test_cancel_queued_job_then_result_is_410(self, running_server, client):
        running_server.queue.pause_dispatch()
        job = client.submit("table5", scale=0.02, seed=3)["job"]
        record = client.cancel(job["id"])
        assert record["state"] == "cancelled"
        with pytest.raises(ServeError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.http_status == 410

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._json("GET", "/nope")
        assert excinfo.value.http_status == 404

    def test_list_jobs(self, running_server, client):
        running_server.queue.pause_dispatch()
        client.submit("table2", scale=0.02, seed=3)
        client.submit("table3", scale=0.02, seed=3)
        jobs = client.list_jobs()
        assert len(jobs) == 2
        assert {j["spec"]["experiment"] for j in jobs} == {"table2", "table3"}

    def test_error_body_carries_structured_code(self, client):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            client.url + "/jobs/job-nope", method="GET"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        body = json.loads(excinfo.value.read())
        assert body["code"] == "SERVE"
        assert body["error"].startswith("error[SERVE]:")

    def test_unreachable_service_is_a_structured_error(self):
        client = ServeClient("http://127.0.0.1:9", timeout_s=1.0)
        with pytest.raises(ServeError, match="cannot reach"):
            client.health()


class TestLongPoll:
    """``GET /jobs/<id>?wait=...`` parks on the queue's condition."""

    def test_wait_terminal_returns_done_job(self, client):
        job = client.submit("table2", scale=0.02, seed=7)["job"]
        record = client.wait_state(job["id"], "terminal", timeout_s=60)
        assert record["state"] == "done"

    def test_wait_running_satisfied_by_terminal(self, client):
        job = client.submit("table2", scale=0.02, seed=7)["job"]
        record = client.wait_state(job["id"], "running", timeout_s=60)
        assert record["state"] in ("running", "done")

    def test_wait_round_times_out_with_current_state(
        self, running_server, client
    ):
        running_server.queue.pause_dispatch()
        job = client.submit("table3", scale=0.02, seed=1)["job"]
        record = client.wait_state(job["id"], "terminal", timeout_s=0.1)
        assert record["state"] == "queued"

    def test_wait_unblocks_on_transition_not_polling(
        self, running_server, client
    ):
        """A waiter parked before the transition returns promptly after
        it — the coordination is the condition, not a sleep loop."""
        import threading

        running_server.queue.pause_dispatch()
        job = client.submit("table3", scale=0.02, seed=2)["job"]
        out = {}

        def wait() -> None:
            out["record"] = client.wait_state(
                job["id"], "terminal", timeout_s=30
            )

        waiter = threading.Thread(target=wait)
        waiter.start()
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert out["record"]["state"] == "cancelled"

    def test_bad_wait_target_is_400(self, client):
        job = client.submit("table2", scale=0.02, seed=7)["job"]
        with pytest.raises(ServeError) as excinfo:
            client.wait_state(job["id"], "sideways")
        assert excinfo.value.http_status == 400

    def test_bad_timeout_is_400(self, client):
        job = client.submit("table2", scale=0.02, seed=7)["job"]
        with pytest.raises(ServeError):
            client._json(
                "GET", f"/jobs/{job['id']}?wait=terminal&timeout_s=soup"
            )

    def test_wait_for_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.wait_state("job-nope", "terminal", timeout_s=1)
        assert excinfo.value.http_status == 404


class TestDrainRestore:
    def test_drain_journals_queued_and_restart_completes_them(self, tmp_path):
        state = str(tmp_path / "state")
        first = ExperimentServer(port=0, workers=1, state_dir=state)
        first.start()
        client = ServeClient(first.url)
        first.queue.pause_dispatch()  # hold everything queued
        ids = [
            client.submit(exp, scale=0.02, seed=3)["job"]["id"]
            for exp in ("table2", "table3", "table5")
        ]
        summary = first.drain()
        assert summary["journaled"] == 3

        second = ExperimentServer(port=0, workers=1, state_dir=state)
        second.start()
        try:
            assert second.restored_jobs == 3
            client2 = ServeClient(second.url)
            for job_id in ids:  # original ids survive the restart
                record = client2.wait(job_id, timeout_s=120)
                assert record["state"] == "done"
                assert client2.result(job_id)["render"]
            metrics = client2.metrics()
            assert metrics["counters"]["serve.jobs.restored"] == 3
            # journal consumed: a third start restores nothing
            assert JobJournalEmpty(state)
        finally:
            second.drain()

    def test_draining_server_rejects_submissions_with_503(self, tmp_path):
        server = ExperimentServer(
            port=0, workers=1, state_dir=str(tmp_path / "state")
        )
        server.start()
        client = ServeClient(server.url)
        server.queue.reject_submissions("service is draining")
        with pytest.raises(ServeError) as excinfo:
            client.submit("table2", scale=0.02, seed=3)
        assert excinfo.value.http_status == 503
        server.drain()

    def test_drain_without_state_dir_journals_nothing(self):
        server = ExperimentServer(port=0, workers=1)
        server.start()
        summary = server.drain()
        assert summary["journaled"] == 0

    def test_drain_is_idempotent(self, tmp_path):
        server = ExperimentServer(
            port=0, workers=1, state_dir=str(tmp_path / "state")
        )
        server.start()
        server.drain()
        summary = server.drain()
        assert summary["journaled"] == 0

    def test_start_on_a_held_port_keeps_the_journal(self, tmp_path):
        """A start that cannot bind is a typed error that leaves the
        journal for the next start and the process registry as it was."""
        import socket

        from repro.obs import metrics as _metrics
        from repro.serve.journal import JobJournal
        from repro.serve.queue import JobQueue

        state = tmp_path / "state"
        JobJournal(state).write_jobs(
            [JobQueue().submit(JobSpec("table2", 0.02, 3))[0]]
        )
        previous = _metrics.get_registry()
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            with pytest.raises(ServeError, match=f"127.0.0.1:{port}"):
                ExperimentServer(
                    port=port, workers=1, state_dir=str(state)
                ).start()
        assert _metrics.get_registry() is previous
        assert len(JobJournal(state).load()) == 1

        server = ExperimentServer(port=0, workers=1, state_dir=str(state))
        server.start()
        try:
            assert server.restored_jobs == 1
        finally:
            server.drain()


def JobJournalEmpty(state_dir: str) -> bool:
    from repro.serve.journal import JobJournal

    return JobJournal(state_dir).load() == []


class TestRestoreValidation:
    def test_restore_skips_corrupt_spec_records(self, tmp_path):
        from repro.serve.journal import JobJournal
        from repro.serve.queue import JobQueue

        state = tmp_path / "state"
        queue = JobQueue()
        good = queue.submit(JobSpec("table2", 0.02, 3))[0]
        journal = JobJournal(state)
        journal.write_jobs([good])
        # hand-corrupt the spec: valid checksum, invalid experiment
        from repro.sim.checkpoint import journal_line

        bad = {
            "schema": 1,
            "id": "job-bad-0001",
            "spec": {"experiment": "not-an-experiment"},
            "digest": "x",
            "priority": 0,
            "submitted_unix": 0.0,
        }
        with journal.path.open("a") as handle:
            handle.write(journal_line(bad) + "\n")

        server = ExperimentServer(port=0, workers=1, state_dir=str(state))
        server.start()
        try:
            assert server.restored_jobs == 1
            assert server.queue.job(good.id).spec.experiment == "table2"
            with pytest.raises(ServeError):
                server.queue.job("job-bad-0001")
        finally:
            server.drain()
