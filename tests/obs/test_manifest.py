"""Tests for run manifests (:mod:`repro.obs.manifest`)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.obs.manifest import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    METRICS_NAME,
    REQUIRED_MANIFEST_KEYS,
    build_manifest,
    config_digest,
    load_manifest,
    load_metrics,
    load_run,
    peak_rss_mb,
    stage_timings,
    validate_manifest,
    write_run_files,
)
from repro.obs.metrics import MetricsRegistry


def _settings():
    return {"scale": 0.5, "seed": 1, "engine": "fast", "jobs": 2}


class TestConfigDigest:
    def test_key_order_invariant(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_non_json_values_stringified(self):
        from pathlib import Path

        assert config_digest({"p": Path("/tmp/x")}) == config_digest({"p": "/tmp/x"})


class TestStageTimings:
    def test_aggregates_top_level_spans_by_name(self):
        registry = MetricsRegistry()
        with registry.span("replay"):
            with registry.span("nested"):
                pass
        with registry.span("replay"):
            pass
        stages = stage_timings(registry.snapshot())
        assert [s["name"] for s in stages] == ["replay"]  # nested excluded
        (replay,) = stages
        assert replay["count"] == 2
        assert replay["total_s"] >= replay["max_s"] > 0.0


class TestManifestShape:
    def test_build_carries_required_keys(self):
        manifest = build_manifest(_settings())
        for key in REQUIRED_MANIFEST_KEYS:
            assert key in manifest
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["config_digest"] == config_digest(_settings())

    def test_validate_rejects_missing_keys(self):
        manifest = build_manifest(_settings())
        del manifest["config_digest"]
        with pytest.raises(ReproError, match="missing keys: config_digest"):
            validate_manifest(manifest)

    def test_validate_rejects_unknown_schema(self):
        manifest = build_manifest(_settings())
        manifest["schema"] = 999
        with pytest.raises(ReproError, match="schema 999"):
            validate_manifest(manifest)

    def test_validate_rejects_non_object(self):
        with pytest.raises(ReproError):
            validate_manifest(["not", "a", "manifest"])


class TestPeakRss:
    def test_a_manifest_records_the_process_peak_in_mb(self):
        pytest.importorskip("resource")
        manifest = build_manifest({"jobs": 1})
        assert manifest["peak_rss_mb"] > 1.0
        assert "worker_peak_rss_mb" not in manifest
        status = Path("/proc/self/status")
        if status.exists():  # Linux: VmHWM is the same high-water mark, in kB
            line = next(
                row for row in status.read_text().splitlines()
                if row.startswith("VmHWM:")
            )
            hwm_mb = int(line.split()[1]) / 1024
            assert manifest["peak_rss_mb"] == pytest.approx(hwm_mb, rel=0.05)

    def test_a_jobs_run_records_its_largest_worker(self):
        pytest.importorskip("resource")
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        manifest = build_manifest(_settings())  # jobs=2
        assert 1.0 < manifest["worker_peak_rss_mb"]

    def test_omitted_without_the_resource_module(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "resource", None)
        assert peak_rss_mb(workers=True) == {}
        manifest = build_manifest(_settings())
        assert "peak_rss_mb" not in manifest
        validate_manifest(manifest)


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter_add("replay_cache.hits", 7)
        with registry.span("experiment.table5"):
            pass
        out = tmp_path / "results"
        manifest_path, metrics_path = write_run_files(out, _settings(), registry)

        assert manifest_path == out / MANIFEST_NAME
        assert metrics_path == out / METRICS_NAME
        manifest = load_manifest(out)
        assert manifest["settings"]["scale"] == 0.5
        assert [s["name"] for s in manifest["stages"]] == ["experiment.table5"]
        metrics = load_metrics(out)
        assert metrics["counters"]["replay_cache.hits"] == 7

    def test_load_run_accepts_dir_or_metrics_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter_add("c", 1)
        write_run_files(tmp_path, _settings(), registry)
        by_dir = load_run(tmp_path)
        by_file = load_run(tmp_path / METRICS_NAME)
        assert by_dir[0] == by_file[0]
        assert by_dir[1] is not None and by_dir[1] == by_file[1]

    def test_load_run_survives_missing_manifest(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter_add("c", 1)
        write_run_files(tmp_path, _settings(), registry)
        (tmp_path / MANIFEST_NAME).unlink()
        metrics, manifest = load_run(tmp_path)
        assert metrics["counters"]["c"] == 1
        assert manifest is None

    def test_load_errors_are_repro_errors(self, tmp_path):
        with pytest.raises(ReproError, match="no metrics file"):
            load_metrics(tmp_path)
        with pytest.raises(ReproError, match="no manifest"):
            load_manifest(tmp_path)
        (tmp_path / METRICS_NAME).write_text("{not json")
        with pytest.raises(ReproError, match="unreadable"):
            load_metrics(tmp_path)
        (tmp_path / METRICS_NAME).write_text(json.dumps({"no": "counters"}))
        with pytest.raises(ReproError, match="not a metrics snapshot"):
            load_metrics(tmp_path)
