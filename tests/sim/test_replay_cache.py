"""Tests for the persistent replay cache (:mod:`repro.sim.replay_cache`)."""

import dataclasses
import os
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

    @pytest.mark.parametrize(
        "junk",
        [
            b"not a pickle",  # UnpicklingError
            b"garbage\n",     # ValueError ('g' is the GET opcode)
            b"",              # EOFError
        ],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, junk):
        cache = ReplayCache(root=tmp_path, enabled=True)
        cache.put("k", [1, 2])
        (tmp_path / "k.pkl").write_bytes(junk)
        assert cache.get("k") is None

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
    def test_corruption_quarantines_entry(self, tmp_path):
        """A damaged entry is a counted miss and is deleted so it can
        never fail (or lie) twice."""
        cache = ReplayCache(root=tmp_path, enabled=True)
        cache.put("k", [1, 2])
        (tmp_path / "k.pkl").write_bytes(b"RPC2" + b"\x00" * 40)
        assert cache.get("k") is None
        assert cache.corrupt == 1
        assert not (tmp_path / "k.pkl").exists()

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
    def test_meta_round_trip(self, tmp_path):
        cache = ReplayCache(root=tmp_path, enabled=True)
        cache.put("k", {"x": 1}, meta={"engine": "vector"})
        assert cache.get("k") == {"x": 1}
        assert cache.entry_meta("k") == {"engine": "vector"}

    def test_legacy_entry_reports_empty_meta(self, tmp_path):
        """Entries stored before (or without) metadata read back
        unchanged and report ``{}`` — no cache-version bump."""
        cache = ReplayCache(root=tmp_path, enabled=True)
        cache.put("old", [1, 2, 3])
        assert cache.get("old") == [1, 2, 3]
        assert cache.entry_meta("old") == {}

    def test_dict_values_survive_without_meta(self, tmp_path):
        """A plain dict value must not be mistaken for the envelope."""
        cache = ReplayCache(root=tmp_path, enabled=True)
        cache.put("d", {"value": 9, "other": 1})
        assert cache.get("d") == {"value": 9, "other": 1}

    def test_missing_entry_meta_is_none(self, tmp_path):
        cache = ReplayCache(root=tmp_path, enabled=True)
        assert cache.entry_meta("absent") is None

    def test_entry_meta_is_side_effect_free(self, tmp_path):
        cache = ReplayCache(root=tmp_path, enabled=True)
        cache.put("k", 1, meta={"engine": "fast"})
        hits, misses = cache.hits, cache.misses
        cache.entry_meta("k")
        cache.entry_meta("absent")
        assert (cache.hits, cache.misses) == (hits, misses)

    def test_session_records_resolved_engine(self, tmp_path, monkeypatch):
        from repro.nvsim.published import sram_baseline
        from repro.sim.engine import ENGINE_ENV
        from repro.sim.system import SimulationSession

        monkeypatch.setenv(ENGINE_ENV, "vector")
        cache = ReplayCache(root=tmp_path, enabled=True, min_accesses=10)
        SimulationSession(_trace(n=200), replay_cache=cache).run(sram_baseline())
        stems = [p.stem for p in tmp_path.glob("*.pkl")]
        assert stems
        for stem in stems:
            assert cache.entry_meta(stem) == {"engine": "vector"}


class TestEviction:
    def _fill(self, cache, names, payload_bytes=2048):
        for name in names:
            cache.put(name, b"x" * payload_bytes)

    def test_lru_eviction_under_cap(self, tmp_path):
        """A fresh instance (empty live set) evicts oldest-first."""
        writer = ReplayCache(root=tmp_path, enabled=True, max_bytes=None)
        self._fill(writer, ["a", "b", "c"])
        os.utime(tmp_path / "a.pkl", (1, 1))
        os.utime(tmp_path / "b.pkl", (2, 2))
        capped = ReplayCache(root=tmp_path, enabled=True, max_bytes=5000)
        capped.put("d", b"x" * 2048)
        remaining = {p.name for p in tmp_path.glob("*.pkl")}
        assert "a.pkl" not in remaining  # oldest went first
        assert "d.pkl" in remaining
        assert capped.evictions >= 1

    def test_live_entries_never_evicted(self, tmp_path):
        """The cap may be transiently exceeded, but entries this
        process wrote are never its own victims."""
        cache = ReplayCache(root=tmp_path, enabled=True, max_bytes=3000)
        self._fill(cache, ["a", "b", "c", "d"])
        assert cache.evictions == 0
        assert {p.stem for p in tmp_path.glob("*.pkl")} == {"a", "b", "c", "d"}

    def test_hit_refreshes_recency(self, tmp_path):
        writer = ReplayCache(root=tmp_path, enabled=True)
        self._fill(writer, ["old", "hot"])
        os.utime(tmp_path / "old.pkl", (10, 10))
        os.utime(tmp_path / "hot.pkl", (5, 5))
        reader = ReplayCache(root=tmp_path, enabled=True)
        assert reader.get("hot") is not None  # re-touches mtime (and pins)
        assert (tmp_path / "hot.pkl").stat().st_mtime > 10

    def test_unbounded_without_cap(self, tmp_path):
        cache = ReplayCache(root=tmp_path, enabled=True, max_bytes=None)
        self._fill(cache, [f"k{i}" for i in range(8)])
        assert cache.evictions == 0
        assert cache.entries() == 8

    def test_cap_parsing(self, monkeypatch):
        from repro.sim.replay_cache import CACHE_MAX_MB_ENV, cache_max_bytes

        monkeypatch.delenv(CACHE_MAX_MB_ENV, raising=False)
        assert cache_max_bytes() is None
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "2")
        assert cache_max_bytes() == 2 * 1024 * 1024
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "0.5")
        assert cache_max_bytes() == 512 * 1024
        for bad in ("", "nope", "-3", "0"):
            monkeypatch.setenv(CACHE_MAX_MB_ENV, bad)
            assert cache_max_bytes() is None


class TestTmpSweep:
    def test_stale_tmp_swept_on_open(self, tmp_path):
        """A worker killed mid-store leaves a *.tmp orphan; the next
        cache open removes it once it is clearly abandoned."""
        tmp_path.mkdir(exist_ok=True)
        stale = tmp_path / "orphan123.tmp"
        stale.write_bytes(b"partial write")
        os.utime(stale, (1, 1))  # ancient
        cache = ReplayCache(root=tmp_path, enabled=True)
        assert not stale.exists()
        assert cache.tmp_swept == 1

    def test_young_tmp_survives(self, tmp_path):
        """A fresh temp file may belong to a live concurrent writer."""
        young = tmp_path / "inflight.tmp"
        young.write_bytes(b"being written right now")
        cache = ReplayCache(root=tmp_path, enabled=True)
        assert young.exists()
        assert cache.tmp_swept == 0

    def test_explicit_sweep_with_zero_age(self, tmp_path):
        young = tmp_path / "inflight.tmp"
        young.write_bytes(b"x")
        cache = ReplayCache(root=tmp_path, enabled=True)
        assert cache.sweep_stale_tmp(max_age_s=0.0) == 1
        assert not young.exists()

    def test_entries_not_touched_by_sweep(self, tmp_path):
        cache = ReplayCache(root=tmp_path, enabled=True)
        cache.put("keep", 1)
        os.utime(tmp_path / "keep.pkl", (1, 1))
        cache.sweep_stale_tmp(max_age_s=0.0)
        assert cache.get("keep") == 1


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
