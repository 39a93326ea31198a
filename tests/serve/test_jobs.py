"""Unit tests for job specs, digests and the job lifecycle."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServeError
from repro.serve.jobs import (
    Job,
    JobSpec,
    JobState,
    execute_spec,
    normalize_spec,
    spec_digest,
)


class TestNormalizeSpec:
    def test_minimal_spec(self):
        spec = normalize_spec({"experiment": "table2"})
        assert spec == JobSpec(experiment="table2", scale=1.0, seed=None)

    def test_full_spec(self):
        spec = normalize_spec(
            {"experiment": "figure1", "scale": 0.25, "seed": 7}
        )
        assert spec.experiment == "figure1"
        assert spec.scale == 0.25
        assert spec.seed == 7

    def test_priority_key_is_allowed_but_not_part_of_the_spec(self):
        spec = normalize_spec({"experiment": "table2", "priority": 5})
        assert "priority" not in spec.as_dict()

    def test_unknown_key_gets_did_you_mean(self):
        with pytest.raises(ServeError, match="scale"):
            normalize_spec({"experiment": "table2", "scal": 0.5})

    def test_unknown_experiment_gets_did_you_mean(self):
        with pytest.raises(ServeError, match="table2"):
            normalize_spec({"experiment": "tabel2"})

    def test_missing_experiment(self):
        with pytest.raises(ServeError, match="experiment"):
            normalize_spec({"scale": 0.5})

    @pytest.mark.parametrize("scale", [0.0, -1, 1.5, "big", True, float("nan")])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ServeError):
            normalize_spec({"experiment": "table2", "scale": scale})

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ServeError):
            normalize_spec({"experiment": "table2", "seed": seed})

    def test_not_a_mapping(self):
        with pytest.raises(ServeError, match="JSON object"):
            normalize_spec(["table2"])


class TestSpecDigest:
    def test_same_spec_same_digest(self):
        a = normalize_spec({"experiment": "table2", "scale": 0.5, "seed": 1})
        b = normalize_spec({"seed": 1, "scale": 0.5, "experiment": "table2"})
        assert spec_digest(a) == spec_digest(b)

    def test_different_spec_different_digest(self):
        base = {"experiment": "table2", "scale": 0.5, "seed": 1}
        digests = {
            spec_digest(normalize_spec(base)),
            spec_digest(normalize_spec(dict(base, experiment="table3"))),
            spec_digest(normalize_spec(dict(base, scale=0.25))),
            spec_digest(normalize_spec(dict(base, seed=2))),
        }
        assert len(digests) == 4

    def test_digest_includes_cache_version(self, monkeypatch):
        import repro.sim.replay_cache as replay_cache

        spec = normalize_spec({"experiment": "table2"})
        before = spec_digest(spec)
        monkeypatch.setattr(
            replay_cache, "CACHE_VERSION", replay_cache.CACHE_VERSION + 1
        )
        assert spec_digest(spec) != before


class TestJobLifecycle:
    def _job(self):
        spec = JobSpec(experiment="table2", scale=0.05, seed=1)
        return Job(spec, spec_digest(spec))

    def test_ids_are_unique(self):
        ids = {self._job().id for _ in range(100)}
        assert len(ids) == 100

    def test_done_transition(self):
        job = self._job()
        assert job.state is JobState.QUEUED
        job.mark_running()
        assert job.state is JobState.RUNNING
        job.mark_done(b"{}")
        assert job.state is JobState.DONE
        assert job.result_bytes == b"{}"

    def test_failed_records_structured_code(self):
        job = self._job()
        job.mark_failed(ServeError("boom"))
        assert job.state is JobState.FAILED
        assert job.error == "boom"
        assert job.error_code == "SERVE"

    def test_terminal_states(self):
        assert not JobState.QUEUED.terminal
        assert not JobState.RUNNING.terminal
        assert JobState.DONE.terminal
        assert JobState.FAILED.terminal
        assert JobState.CANCELLED.terminal

    def test_describe_is_json_ready(self):
        record = json.loads(json.dumps(self._job().describe()))
        assert record["state"] == "queued"
        assert record["spec"]["experiment"] == "table2"
        assert record["submissions"] == 1


class TestExecuteSpec:
    def test_payload_is_canonical_and_deterministic(self):
        spec = normalize_spec(
            {"experiment": "table2", "scale": 0.02, "seed": 3}
        )
        first = execute_spec(spec)
        second = execute_spec(spec)
        assert first == second  # byte-identical across runs
        payload = json.loads(first)
        assert payload["experiment"] == "table2"
        assert payload["digest"] == spec_digest(spec)
        assert "Table II" in payload["render"]
        # canonical serialisation: re-dumping reproduces the bytes
        assert (
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
            == first
        )

    def test_state_dir_checkpoints_cells(self, tmp_path):
        spec = normalize_spec(
            {"experiment": "figure1", "scale": 0.02, "seed": 3}
        )
        execute_spec(spec, state_dir=str(tmp_path))
        cells = tmp_path / "cells" / spec_digest(spec)
        assert cells.is_dir()
