"""Tests for the persistent replay cache (:mod:`repro.sim.replay_cache`)."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.sim.config import gainestown
from repro.sim.replay_cache import (
    CACHE_DIR_ENV,
    CACHE_ENABLE_ENV,
    ReplayCache,
    default_cache,
    llc_geometry_key,
    private_arch_key,
    reset_default_cache,
    trace_fingerprint,
)
from repro.trace.stream import Trace


def _trace(n=64, seed=3, name="t"):
    rng = np.random.default_rng(seed)
    return Trace(
        addresses=rng.integers(0, 1 << 20, n).astype(np.uint64),
        writes=rng.random(n) < 0.3,
        thread_ids=np.zeros(n, dtype=np.uint16),
        gaps=rng.integers(0, 10, n).astype(np.uint32),
        name=name,
    )


class TestFingerprint:
    def test_deterministic(self):
        assert trace_fingerprint(_trace()) == trace_fingerprint(_trace())

    def test_content_sensitive(self):
        assert trace_fingerprint(_trace(seed=3)) != trace_fingerprint(_trace(seed=4))

    def test_name_does_not_matter(self):
        assert trace_fingerprint(_trace(name="a")) == trace_fingerprint(_trace(name="b"))


class TestArchKeys:
    def test_private_key_ignores_timing_constants(self):
        """Sensitivity sweeps vary timing knobs only; they must share
        one private replay."""
        arch = gainestown()
        tweaked = dataclasses.replace(arch, base_cpi=9.9, max_mlp=2.0)
        assert private_arch_key(arch) == private_arch_key(tweaked)

    def test_private_key_sees_geometry(self):
        arch = gainestown()
        assert private_arch_key(arch) != private_arch_key(gainestown(n_cores=8))

    def test_llc_key_sees_capacity_and_mlp(self):
        arch = gainestown()
        assert llc_geometry_key(arch, 1 << 20) != llc_geometry_key(arch, 2 << 20)
        tweaked = dataclasses.replace(arch, max_mlp=2.0)
        assert llc_geometry_key(arch, 1 << 20) != llc_geometry_key(tweaked, 1 << 20)


class TestStore:
    def test_round_trip(self, tmp_path):
        cache = ReplayCache(root=tmp_path, enabled=True)
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        assert cache.hits == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ReplayCache(root=tmp_path, enabled=True)
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_disabled_cache_stores_nothing(self, tmp_path):
        cache = ReplayCache(root=tmp_path, enabled=False)
        cache.put("k", 1)
        assert cache.get("k") is None
        assert cache.entries() == 0

    def test_clear(self, tmp_path):
        cache = ReplayCache(root=tmp_path, enabled=True)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.entries() == 2
        assert cache.clear() == 2
        assert cache.entries() == 0

    def test_small_traces_skip_cache(self, tmp_path):
        cache = ReplayCache(root=tmp_path, enabled=True, min_accesses=100)
        assert not cache.should_cache(_trace(n=64))
        assert cache.should_cache(_trace(n=128))


class TestIntegrity:
    def test_entry_format_round_trips(self):
        from repro.sim.replay_cache import ENTRY_MAGIC, _unpack
        from repro.store import seal

        value = {"a": [1.5, 2.5], "b": "text"}
        packed = seal(ENTRY_MAGIC, pickle.dumps(value))
        assert _unpack(packed) == value
        with pytest.raises(ValueError):
            _unpack(b"XXXX" + packed[4:])
        with pytest.raises(ValueError):
            _unpack(b"RPC2")


class TestMeta:
    def test_dict_values_survive_without_meta(self, tmp_path):
        """A plain dict value must not be mistaken for the provenance
        envelope older entries carry."""
        cache = ReplayCache(root=tmp_path, enabled=True)
        cache.put("d", {"value": 9, "other": 1})
        assert cache.get("d") == {"value": 9, "other": 1}


class TestEnvironment:
    def test_disable_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        reset_default_cache()
        try:
            assert not default_cache().enabled
        finally:
            reset_default_cache()

    def test_dir_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "sub"))
        reset_default_cache()
        try:
            assert default_cache().root == tmp_path / "sub"
        finally:
            reset_default_cache()


class TestSessionIntegration:
    def test_session_reuses_disk_entries(self, tmp_path):
        from repro.sim.system import SimulationSession
        from repro.nvsim.published import sram_baseline

        cache = ReplayCache(root=tmp_path, enabled=True, min_accesses=10)
        trace = _trace(n=200)
        model = sram_baseline()

        first = SimulationSession(trace, replay_cache=cache)
        result = first.run(model)
        stored = cache.entries()
        assert stored >= 2  # private replay + one LLC replay

        second = SimulationSession(trace, replay_cache=cache)
        hits_before = cache.hits
        replayed = second.run(model)
        assert cache.hits > hits_before
        assert cache.entries() == stored
        assert replayed.runtime_s == result.runtime_s
        assert replayed.counts == result.counts

    def test_cached_results_match_fresh_compute(self, tmp_path):
        from repro.sim.system import SimulationSession
        from repro.nvsim.published import published_model

        trace = _trace(n=300)
        model = published_model("Jan_S")
        warm_cache = ReplayCache(root=tmp_path, enabled=True, min_accesses=10)
        SimulationSession(trace, replay_cache=warm_cache).run(model)

        from_disk = SimulationSession(trace, replay_cache=warm_cache).run(model)
        no_cache = SimulationSession(
            trace, replay_cache=ReplayCache(enabled=False)
        ).run(model)
        assert from_disk.counts == no_cache.counts
        assert from_disk.runtime_s == no_cache.runtime_s
        assert from_disk.energy == no_cache.energy
