"""Scenario parsing, planning determinism, and report arithmetic.

No daemons here — everything is pure: profile validation, the
deterministic request timeline, exact percentiles and the scaling
summary.  The launcher against live servers is ``test_launcher.py``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LoadGenError
from repro.loadgen import (
    FleetRun,
    RateRun,
    RequestRecord,
    Scenario,
    arrival_offsets,
    bundled_profile,
    bundled_profiles,
    load_scenario,
    parse_scenario,
    percentile,
    plan_requests,
    render_fleet,
    render_rate,
    resolve_scenario,
    summarize_fleet,
    summarize_rate,
)

MINIMAL = {
    "name": "t",
    "qps": [4.0],
    "mix": [{"experiment": "table2", "scale": 0.02, "seeds": 4}],
}


def scenario(**overrides) -> Scenario:
    mapping = dict(MINIMAL)
    mapping.update(overrides)
    return parse_scenario(mapping)


class TestParseScenario:
    def test_minimal_profile_defaults(self):
        parsed = scenario()
        assert parsed.name == "t"
        assert parsed.arrival == "uniform"
        assert parsed.duplicate_rate == 0.0
        assert parsed.qps == (4.0,)
        assert parsed.distinct_specs() == 4

    def test_roundtrips_through_as_dict(self):
        parsed = scenario(duplicate_rate=0.5, arrival="poisson")
        assert parse_scenario(parsed.as_dict()) == parsed
        # and as_dict is JSON-ready
        assert json.loads(json.dumps(parsed.as_dict())) == parsed.as_dict()

    @pytest.mark.parametrize("mapping, fragment", [
        ({**MINIMAL, "durationn_s": 3}, "duration_s"),     # did-you-mean
        ({**MINIMAL, "arrival": "bursty"}, "poisson"),
        ({**MINIMAL, "name": "Bad Name"}, "name"),
        ({**MINIMAL, "qps": []}, "qps"),
        ({**MINIMAL, "qps": "fast"}, "qps"),
        ({**MINIMAL, "qps": [0.0]}, "qps[0]"),
        ({**MINIMAL, "mix": []}, "mix"),
        ({**MINIMAL, "mix": [{"experiment": "tabel2"}]}, "table2"),
        ({**MINIMAL, "mix": [{"experiment": "table2", "scal": 1}]}, "scale"),
        ({**MINIMAL, "duplicate_rate": 1.5}, "duplicate_rate"),
        ({**MINIMAL, "concurrency": 0}, "concurrency"),
        ("not a mapping", "object"),
    ])
    def test_rejections_name_the_problem(self, mapping, fragment):
        with pytest.raises(LoadGenError) as excinfo:
            parse_scenario(mapping)
        assert fragment in str(excinfo.value)


class TestProfileFiles:
    def test_bundled_profiles_exist(self):
        names = bundled_profiles()
        assert {"smoke", "scaling", "duplicate_storm", "compute"} <= set(
            names
        )

    @pytest.mark.parametrize("name", [
        "smoke", "scaling", "duplicate_storm", "compute",
    ])
    def test_every_bundled_profile_parses(self, name):
        parsed = bundled_profile(name)
        assert parsed.name == name

    def test_unknown_bundled_profile_suggests(self):
        with pytest.raises(LoadGenError) as excinfo:
            bundled_profile("smke")
        assert "smoke" in str(excinfo.value)

    def test_load_scenario_from_path(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(MINIMAL))
        assert load_scenario(path).name == "t"
        assert resolve_scenario(str(path)).name == "t"

    def test_resolve_scenario_by_name(self):
        assert resolve_scenario("smoke").name == "smoke"

    def test_missing_file_is_a_loadgen_error(self, tmp_path):
        with pytest.raises(LoadGenError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_bad_json_is_a_loadgen_error(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{nope")
        with pytest.raises(LoadGenError, match="not valid JSON"):
            load_scenario(path)

    def test_scaling_profile_uses_emulated_service_time(self):
        """The committed scaling claim must come from the emulated
        backend (docs/SERVING.md): a 1-CPU host cannot scale real
        compute across shards, and the profile encodes that honesty."""
        assert bundled_profile("scaling").service_time_ms > 0
        assert bundled_profile("compute").service_time_ms == 0


class TestArrivals:
    def test_uniform_offsets_are_evenly_spaced(self):
        offsets = arrival_offsets("uniform", 10.0, 1.0, seed=0)
        assert offsets == [i / 10.0 for i in range(10)]

    def test_poisson_is_deterministic_per_seed(self):
        first = arrival_offsets("poisson", 20.0, 2.0, seed=7)
        again = arrival_offsets("poisson", 20.0, 2.0, seed=7)
        other = arrival_offsets("poisson", 20.0, 2.0, seed=8)
        assert first == again
        assert first != other

    def test_poisson_offsets_increase_within_window(self):
        offsets = arrival_offsets("poisson", 50.0, 2.0, seed=3)
        assert offsets == sorted(offsets)
        assert all(0.0 <= o < 2.0 for o in offsets)

    def test_unknown_arrival_rejected(self):
        with pytest.raises(LoadGenError):
            arrival_offsets("bursty", 1.0, 1.0, seed=0)


class TestPlanRequests:
    def test_plan_is_deterministic(self):
        parsed = scenario(duplicate_rate=0.5, seed=3)
        assert plan_requests(parsed, 8.0) == plan_requests(parsed, 8.0)

    def test_zero_duplicate_rate_plans_no_duplicates(self):
        planned = plan_requests(scenario(), 8.0)
        assert planned and not any(p.duplicate for p in planned)

    def test_duplicates_repeat_an_earlier_body(self):
        planned = plan_requests(
            scenario(duplicate_rate=0.6, duration_s=3.0), 8.0
        )
        seen = []
        for request in planned:
            if request.duplicate:
                assert request.body in seen
            else:
                seen.append(request.body)
        assert any(p.duplicate for p in planned)

    def test_fresh_specs_stay_inside_the_mix(self):
        parsed = scenario(duration_s=3.0)
        planned = plan_requests(parsed, 8.0)
        bodies = {json.dumps(p.body, sort_keys=True) for p in planned}
        assert len(bodies) <= parsed.distinct_specs()
        for request in planned:
            assert request.body["experiment"] == "table2"
            assert request.body["seed"] - parsed.seed in range(4)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        qps=st.floats(min_value=1.0, max_value=50.0),
        rate=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_offsets_ride_the_arrival_process(self, seed, qps, rate):
        parsed = scenario(seed=seed, duplicate_rate=rate, duration_s=2.0)
        planned = plan_requests(parsed, qps)
        offsets = arrival_offsets("uniform", qps, 2.0, seed)
        assert [p.offset_s for p in planned] == offsets
        assert [p.index for p in planned] == list(range(len(planned)))


class TestPercentile:
    def test_exact_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0
        assert percentile(values, 25) == 2.0

    def test_interpolates_between_samples(self):
        assert percentile([0.0, 1.0], 50) == 0.5
        assert percentile([0.0, 10.0], 99) == pytest.approx(9.9)

    def test_degenerate_inputs(self):
        assert percentile([], 50) == 0.0
        assert percentile([7.5], 99) == 7.5

    def test_order_independent(self):
        assert percentile([5.0, 1.0, 3.0], 50) == 3.0


def _record(index, state="done", deduped=False, duplicate=False,
            latency=0.1, job=True):
    return RequestRecord(
        index=index, offset_s=0.0, body={"experiment": "table2"},
        duplicate=duplicate, state=state,
        job_id=f"job-{index}" if job else None,
        deduped=deduped, latency_s=latency, submit_s=0.01,
    )


class TestSummaries:
    def test_summarize_rate_counts_states(self):
        records = [
            _record(0), _record(1, deduped=True, duplicate=True),
            _record(2, state="rejected", job=False),
            _record(3, state="failed"),
            _record(4, state="timeout"),
        ]
        summary = summarize_rate(RateRun(8.0, records, wall_s=2.0))
        assert summary["offered"] == 5
        assert summary["states"]["done"] == 2
        assert summary["states"]["rejected"] == 1
        assert summary["throughput_rps"] == 1.0  # 2 done / 2 s
        assert summary["failure_rate"] == pytest.approx(2 / 5)
        assert summary["rejected_rate"] == pytest.approx(1 / 5)
        dedup = summary["dedup"]
        assert dedup["duplicates_offered"] == 1
        assert dedup["client_observed_deduped"] == 1
        assert dedup["hit_rate"] == pytest.approx(1 / 5)

    def test_latency_percentiles_use_done_records_only(self):
        records = [
            _record(0, latency=0.1), _record(1, latency=0.3),
            _record(2, state="failed", latency=99.0),
        ]
        summary = summarize_rate(RateRun(4.0, records, wall_s=1.0))
        assert summary["latency_s"]["p99"] < 1.0

    def test_summarize_fleet_scaling_block(self):
        def run(shards, rps):
            records = [
                _record(i, latency=0.05) for i in range(int(rps))
            ]
            return FleetRun(
                shard_count=shards,
                rates=[RateRun(8.0, records, wall_s=1.0)],
                counters={"serve.jobs.executed": float(rps)},
            )

        report = summarize_fleet(
            [run(1, 4), run(2, 8), run(4, 16)], scenario().as_dict()
        )
        assert [p["shards"] for p in report["points"]] == [1, 2, 4]
        speedup = report["scaling"]["speedup_vs_1_shard"]["8"]
        assert speedup == {"1": 1.0, "2": 2.0, "4": 4.0}

    def test_summarize_fleet_without_one_shard_point(self):
        records = [_record(0)]
        report = summarize_fleet(
            [FleetRun(2, [RateRun(8.0, records, 1.0)], {})],
            scenario().as_dict(),
        )
        assert "speedup_vs_1_shard" not in report["scaling"]
        assert report["scaling"]["throughput_rps"]

    def test_renderings_are_human_strings(self):
        records = [_record(0), _record(1, state="rejected", job=False)]
        rate_summary = summarize_rate(RateRun(8.0, records, 1.0))
        line = render_rate(rate_summary)
        assert "qps" in line and "p99" in line and "rej 1" in line
        report = summarize_fleet(
            [FleetRun(1, [RateRun(8.0, records, 1.0)],
                      {"serve.jobs.executed": 1.0})],
            scenario().as_dict(),
        )
        text = render_fleet(report)
        assert "scenario t" in text
        assert "shards=1" in text
        assert "executed=1" in text
