"""The launcher against live servers (single daemon, fleet router).

Marked ``serial``: real daemons and thread pools.
"""

from __future__ import annotations

import pytest

from repro.errors import LoadGenError
from repro.loadgen import (
    offer,
    parse_scenario,
    summarize_fleet,
    summarize_rate,
    sweep_shards,
)
from repro.loadgen.launcher import RateRun
from repro.serve import ExperimentServer, InProcessFleet

pytestmark = pytest.mark.serial


def scenario(**overrides):
    mapping = {
        "name": "launcher_test",
        "seed": 1,
        "duration_s": 1.0,
        "qps": [8.0],
        "duplicate_rate": 0.5,
        "mix": [{"experiment": "table2", "scale": 0.02, "seeds": 2}],
        "concurrency": 8,
        "timeout_s": 30.0,
    }
    mapping.update(overrides)
    return parse_scenario(mapping)


@pytest.fixture
def server(tmp_path):
    daemon = ExperimentServer(
        port=0, workers=2, state_dir=str(tmp_path / "state")
    )
    daemon.start()
    yield daemon
    daemon.drain()


class TestOffer:
    def test_every_request_resolves_against_one_daemon(self, server):
        records = offer(scenario(), 8.0, url=server.url)
        assert len(records) == 8
        assert {r.state for r in records} == {"done"}
        assert all(r.job_id for r in records)
        # injected duplicates (and seed-pool collisions) dedup server-side
        assert sum(r.deduped for r in records) >= sum(
            r.duplicate for r in records
        )
        summary = summarize_rate(RateRun(8.0, records, wall_s=1.0))
        assert summary["states"]["done"] == 8
        assert summary["failure_rate"] == 0.0
        assert summary["latency_s"]["p99"] > 0.0

    def test_offer_through_a_fleet_router(self, tmp_path):
        with InProcessFleet(shards=2, root=str(tmp_path)) as fleet:
            records = offer(scenario(), 8.0, url=fleet.url)
            assert {r.state for r in records} == {"done"}

    def test_rejections_recorded_not_raised(self, tmp_path):
        daemon = ExperimentServer(
            port=0, workers=1, max_queued=2,
            state_dir=str(tmp_path / "state"),
        )
        daemon.start()
        try:
            daemon.queue.pause_dispatch()  # nothing drains: queue fills
            records = offer(
                scenario(duplicate_rate=0.0,
                         mix=[{"experiment": "table2", "scale": 0.02,
                               "seeds": 100}],
                         timeout_s=0.5),
                8.0, url=daemon.url,
            )
            states = {r.state for r in records}
            assert "rejected" in states
            rejected = [r for r in records if r.state == "rejected"]
            assert all(r.job_id is None for r in rejected)
            # the 2 admitted jobs never ran: their waits time out as 504
            assert "timeout" in states
        finally:
            daemon.queue.resume_dispatch()
            daemon.drain()

    def test_unreachable_target_records_errors(self):
        records = offer(
            scenario(timeout_s=0.5), 8.0, url="http://127.0.0.1:9"
        )
        assert {r.state for r in records} == {"error"}
        assert all(r.error for r in records)

    def test_empty_timeline_is_a_loadgen_error(self, server):
        with pytest.raises(LoadGenError, match="no requests"):
            offer(scenario(duration_s=0.1), 0.5, url=server.url)


class TestSweepShards:
    def test_one_point_sweep_collects_fleet_counters(self, tmp_path):
        seen = []
        runs = sweep_shards(
            scenario(duration_s=1.0, duplicate_rate=0.25),
            shard_counts=[1],
            workers=2,
            root=str(tmp_path),
            progress=seen.append,
        )
        assert len(runs) == 1
        run = runs[0]
        assert run.shard_count == 1
        assert seen == ["1 shard(s) @ 8 qps"]
        rate = run.rates[0]
        assert {r.state for r in rate.records} == {"done"}
        executed = run.counters.get("serve.jobs.executed", 0)
        deduped = run.counters.get("serve.jobs.deduped", 0)
        assert executed >= 1
        assert executed + deduped == len(rate.records)
        report = summarize_fleet(
            runs, scenario().as_dict()
        )
        assert report["points"][0]["shards"] == 1
        assert report["scaling"]["speedup_vs_1_shard"]["8"]["1"] == 1.0
