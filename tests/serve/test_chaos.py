"""Fleet-level chaos proofs: crash, hang, growth and corruption.

The elastic-fleet contract under fire, against real daemon
subprocesses:

- **SIGKILL mid-storm** — a shard dies without drain or journal flush
  while a duplicate storm is in flight, a replacement joins, and the
  fleet still loses zero accepted jobs, computes each distinct digest
  at most ``1 + workers-on-the-killed-shard`` times (exactly once for
  everything not in flight at the kill), and returns bytes identical
  to the single-process engine.  The ring version advances for the
  ejection and the join, and recovery surfaces only typed errors,
  never a raw 5xx.
- **Hang past the heartbeat** — a SIGSTOPped shard is ejected by the
  router's failure detector, its ring segment remaps, and a SIGCONT
  brings it back via heartbeat rejoin.
- **Growth under load** — a shard added while jobs are in flight joins
  the live ring and the offered work completes byte-identically.
- **Store corruption** — a flipped byte in a shared-store entry is
  quarantined and recomputed, never served.

Computation counting rides the :mod:`tests.serve.hooks` ledger
(``REPRO_CHAOS_LOG`` + the job hook), which also paces jobs so kills
provably land mid-computation.  Ground truth is
:func:`~repro.serve.jobs.execute_spec` in this process, as in
``test_identity.py``.

Marked ``serial``: every test spawns real daemons or an event loop.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.errors import DegradedError, ServeError
from repro.serve import Fleet, InProcessFleet, ServeClient, submit_with_backoff
from repro.serve.executor import JOB_HOOK_ENV
from repro.serve.jobs import JobSpec, execute_spec, normalize_spec, spec_digest
from repro.loadgen.pacing import SERVICE_MS_ENV
from tests.serve.hooks import LOG_ENV, REPO_ROOT, read_log

pytestmark = pytest.mark.serial

SPECS = [
    {"experiment": "table2", "scale": 0.02, "seed": seed}
    for seed in range(6)
]

FAST_HEARTBEAT = dict(
    heartbeat_s=0.3, heartbeat_timeout_s=0.5, eject_after=2
)


def _digest(spec: dict) -> str:
    return spec_digest(normalize_spec(dict(spec)))


@pytest.fixture(scope="module")
def ground_truth():
    """digest -> payload bytes from the in-process engine path."""
    return {
        _digest(spec): execute_spec(
            JobSpec(spec["experiment"], spec["scale"], spec["seed"])
        )
        for spec in SPECS
    }


def _recover(
    client: ServeClient, spec: dict, job_id: str, surfaced=None
) -> bytes:
    """A job's result bytes, resubmitting through degraded windows.

    Zero-accepted-loss, operationally: an accepted id either resolves,
    or its *digest* resolves after a backed-off resubmission (loss-free
    because submissions dedup by digest and finished payloads live in
    the shared store).  Each error swallowed on the way is appended to
    ``surfaced`` when a list is given.
    """
    try:
        record = client.wait(job_id, timeout_s=120)
        if record["state"] == "done":
            return client.result_bytes(job_id)
    except ServeError as error:
        # id lost with the killed shard, home died after finishing,
        # or a degraded window
        if surfaced is not None:
            surfaced.append(error)
    response = submit_with_backoff(
        client, spec["experiment"], scale=spec["scale"],
        seed=spec["seed"], attempts=8,
    )
    record = client.wait(response["job"]["id"], timeout_s=120)
    assert record["state"] == "done", record
    return client.result_bytes(response["job"]["id"])


class TestKillMidStorm:
    FAN_IN = 3  # concurrent submitters per distinct spec

    def test_sigkill_one_of_three_loses_nothing(
        self, tmp_path, ground_truth
    ):
        chaos_log = str(tmp_path / "chaos.log")
        extra_env = {
            JOB_HOOK_ENV: "tests.serve.hooks:log_computation",
            LOG_ENV: chaos_log,
            SERVICE_MS_ENV: "200",
            "PYTHONPATH": str(REPO_ROOT),
        }
        workers = 1
        with Fleet(
            shards=3, root=str(tmp_path / "fleet"), workers=workers,
            extra_env=extra_env, **FAST_HEARTBEAT,
        ) as fleet:
            client = ServeClient(fleet.url)
            version0 = fleet.router.ring_version
            plan = [dict(s) for s in SPECS for _ in range(self.FAN_IN)]
            responses = [None] * len(plan)
            barrier = threading.Barrier(len(plan))

            def submit(index: int) -> None:
                barrier.wait()
                responses[index] = client.submit(**plan[index])

            threads = [
                threading.Thread(target=submit, args=(i,))
                for i in range(len(plan))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert all(r is not None for r in responses)
            accepted = {
                _digest(spec): response["job"]["id"]
                for response, spec in zip(responses, plan)
            }

            # SIGKILL shard 0 while paced jobs are provably in flight
            # (6 jobs / 3 shards / 1 worker at 200 ms each), then grow
            # a replacement into the live ring.
            time.sleep(0.15)
            victim_url = fleet.shards[0].url
            fleet.kill_shard(0, force=True)
            replacement = fleet.add_shard()
            assert replacement.url in fleet.router.ring

            surfaced = []
            recovered = {
                digest: _recover(client, spec, accepted[digest], surfaced)
                for spec in SPECS
                for digest in [_digest(spec)]
            }

            # Zero accepted-job loss, byte-identical to the engine.
            assert recovered == ground_truth

            # Recovery surfaces only typed errors: a retryable DEGRADED
            # (503 + Retry-After) or a 404 for an id lost with its
            # shard, never a raw 5xx such as a bare 502.
            raw_5xx = [
                error for error in surfaced
                if not isinstance(error, DegradedError)
                and error.http_status >= 500
            ]
            assert not raw_5xx, raw_5xx

            # The ring version advanced once for the replacement's join
            # and once for the dead shard's ejection.
            deadline = time.monotonic() + 20.0
            while victim_url in fleet.router.ring:
                assert time.monotonic() < deadline, "never ejected"
                time.sleep(0.05)
            assert fleet.router.ring_version >= version0 + 2

        # One computation per digest, with the only excess bounded by
        # what the killed shard had in flight at the kill: a digest
        # logged there but never stored must be recomputed once.
        counts = read_log(chaos_log)
        assert set(counts) == set(ground_truth)
        assert all(count >= 1 for count in counts.values())
        excess = sum(count - 1 for count in counts.values())
        assert excess <= workers, counts


class TestHangPastHeartbeat:
    def test_sigstop_ejects_sigcont_rejoins(self, tmp_path):
        with Fleet(
            shards=2, root=str(tmp_path), workers=1, **FAST_HEARTBEAT
        ) as fleet:
            client = ServeClient(fleet.url)
            victim = fleet.shards[0]
            victim_url = victim.url
            version0 = fleet.router.ring_version

            os.kill(victim.process.pid, signal.SIGSTOP)
            try:
                deadline = time.monotonic() + 20.0
                while victim_url in fleet.router.ring:
                    assert time.monotonic() < deadline, "never ejected"
                    time.sleep(0.05)
                assert fleet.router.ring_version == version0 + 1

                # The hung shard's segment is remapped: every spec now
                # routes to the survivor and completes.
                for spec in SPECS[:3]:
                    response = submit_with_backoff(
                        client, spec["experiment"], scale=spec["scale"],
                        seed=spec["seed"], attempts=8,
                    )
                    record = client.wait(
                        response["job"]["id"], timeout_s=120
                    )
                    assert record["state"] == "done", record
            finally:
                os.kill(victim.process.pid, signal.SIGCONT)

            # Recovery is automatic: the next successful heartbeat
            # rejoins the shard, bumping the ring version again.
            deadline = time.monotonic() + 20.0
            while victim_url not in fleet.router.ring:
                assert time.monotonic() < deadline, "never rejoined"
                time.sleep(0.05)
            assert fleet.router.ring_version == version0 + 2
            payload = client.ring()
            assert payload["members"][victim_url]["in_ring"] is True
            assert payload["ring"]["version"] == version0 + 2


class TestSupervisorHealsCrash:
    def test_sigkilled_shard_is_restarted_and_rejoined(self, tmp_path):
        with Fleet(
            shards=2, root=str(tmp_path), workers=1,
            supervise=True, **FAST_HEARTBEAT,
        ) as fleet:
            client = ServeClient(fleet.url)
            victim_url = fleet.shards[0].url
            fleet.kill_shard(0, force=True)
            assert not fleet.shards[0].alive

            # The supervisor restarts the shard on its original port
            # and it re-enters the ring (supervisor nudge or heartbeat).
            deadline = time.monotonic() + 30.0
            while not fleet.shards[0].alive:
                assert time.monotonic() < deadline, "never restarted"
                time.sleep(0.05)
            assert fleet.shards[0].url == victim_url
            while victim_url not in fleet.router.ring:
                assert time.monotonic() < deadline, "never rejoined"
                time.sleep(0.05)
            # The restart counter lands after the banner parse, which
            # can lag the heartbeat rejoin by a beat.
            while fleet.supervisor.restarts < 1:
                assert time.monotonic() < deadline, "restart uncounted"
                time.sleep(0.05)

            # The healed fleet serves: every spec completes.
            for spec in SPECS[:2]:
                response = submit_with_backoff(
                    client, spec["experiment"], scale=spec["scale"],
                    seed=spec["seed"], attempts=8,
                )
                record = client.wait(response["job"]["id"], timeout_s=120)
                assert record["state"] == "done", record


class TestAddShardUnderLoad:
    def test_growth_mid_flight_loses_nothing(
        self, monkeypatch, ground_truth
    ):
        monkeypatch.setenv(
            JOB_HOOK_ENV, "repro.loadgen.pacing:emulate_service_time"
        )
        monkeypatch.setenv(SERVICE_MS_ENV, "50")
        with InProcessFleet(shards=2, workers=1, heartbeat_s=0) as fleet:
            client = ServeClient(fleet.url)
            ids = {}
            for spec in SPECS[:3]:
                ids[_digest(spec)] = client.submit(**spec)["job"]["id"]
            fleet.add_shard()  # grow while those are in flight
            assert len(fleet.router.ring) == 3
            for spec in SPECS[3:]:
                ids[_digest(spec)] = client.submit(**spec)["job"]["id"]
            for spec in SPECS:
                digest = _digest(spec)
                payload = _recover(client, spec, ids[digest])
                assert payload == ground_truth[digest]


class TestCorruptStoreEntry:
    def test_corrupt_entry_quarantined_and_recomputed(
        self, tmp_path, ground_truth
    ):
        spec = SPECS[0]
        digest = _digest(spec)
        with Fleet(shards=1, root=str(tmp_path), workers=1) as fleet:
            client = ServeClient(fleet.url)
            job_id = client.submit(**spec)["job"]["id"]
            assert client.wait(job_id, timeout_s=120)["state"] == "done"

            entry = fleet.store_dir / f"{digest}.res"
            assert entry.is_file()
            blob = bytearray(entry.read_bytes())
            blob[-1] ^= 0xFF  # flip a payload byte under the checksum
            entry.write_bytes(bytes(blob))

            # Bounce the shard so the resubmission must go through the
            # store probe (the old in-memory job record is gone).
            fleet.restart_shard(0)
            new_id = client.submit(**spec)["job"]["id"]
            assert client.wait(new_id, timeout_s=120)["state"] == "done"
            assert client.result_bytes(new_id) == ground_truth[digest]
            counters = client.metrics()["counters"]
            assert counters.get("serve.store.corrupt", 0) >= 1
            # Quarantine-then-recompute rewrote a valid entry.
            assert entry.is_file()
