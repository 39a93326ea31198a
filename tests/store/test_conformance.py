"""Conformance suite for the shared blob store (:mod:`repro.store`).

Every case runs once per codec, through the real store class with its
own magic, suffix and counter prefix: the replay cache (``RPC2`` /
``.pkl`` / ``replay_cache``) and the serve result store (``RSV1`` /
``.res`` / ``serve.store``).  Keys are lowercase hex, which both
accept.  Codec-specific behaviour (pickling, provenance metadata,
digest validation, the HTTP transport) is tested beside each codec in
``tests/sim/test_replay_cache.py`` and ``tests/serve/test_store.py``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as _metrics
from repro.serve.store import STORE_MAX_MB_ENV, FileResultStore, store_max_bytes
from repro.sim.replay_cache import (
    CACHE_MAX_MB_ENV,
    META_KEY,
    ReplayCache,
    cache_max_bytes,
)
from repro.store import TMP_SWEEP_AGE_S, BlobStore

#: codec -> (store class, magic, suffix, counter prefix)
CODECS = {
    "replay": (ReplayCache, b"RPC2", ".pkl", "replay_cache"),
    "result": (FileResultStore, b"RSV1", ".res", "serve.store"),
}

KEY = "ab" * 16


def _key(index: int) -> str:
    return f"{index:032x}"


def _open(codec: str, root, max_bytes=None):
    """The codec's store class over ``root`` (None = unbounded when the
    cap variables are unset)."""
    if codec == "replay":
        return ReplayCache(root=root, enabled=True, max_bytes=max_bytes)
    return FileResultStore(root, max_bytes=max_bytes)


def _raw(codec: str, root) -> BlobStore:
    """An unbounded store in the codec's format, independent of env."""
    _, magic, suffix, prefix = CODECS[codec]
    return BlobStore(root, magic, suffix, prefix)


def _container(magic: bytes, payload: bytes) -> bytes:
    """An entry in the historical byte layout, built by hand."""
    return magic + hashlib.blake2b(payload, digest_size=16).digest() + payload


def _fill(codec: str, root, count: int, payload_bytes: int = 1000):
    """``count`` entries with strictly increasing, long-past mtimes."""
    writer = _raw(codec, root)
    base = time.time() - 1000.0
    for index in range(count):
        writer.write(_key(index), b"x" * payload_bytes)
        os.utime(writer._path(_key(index)), (base + index, base + index))


def _names(codec: str, root) -> set:
    suffix = CODECS[codec][2]
    return {path.name[:-len(suffix)] for path in Path(root).glob(f"*{suffix}")}


@pytest.fixture(params=sorted(CODECS))
def codec(request, monkeypatch):
    monkeypatch.delenv(CACHE_MAX_MB_ENV, raising=False)
    monkeypatch.delenv(STORE_MAX_MB_ENV, raising=False)
    return request.param


class TestFormat:
    def test_codec_configuration(self, codec, tmp_path):
        store = _open(codec, tmp_path)
        assert (type(store), store.magic, store.suffix, store.prefix) == CODECS[codec]

    def test_round_trip_writes_the_historical_layout(self, codec, tmp_path):
        store = _open(codec, tmp_path)
        with _metrics.scoped_registry() as registry:
            store.write(KEY, b"payload bytes")
            assert store.read(KEY) == b"payload bytes"
        _, magic, suffix, prefix = CODECS[codec]
        blob = (tmp_path / f"{KEY}{suffix}").read_bytes()
        assert blob == _container(magic, b"payload bytes")
        counters = registry.snapshot()["counters"]
        assert counters[f"{prefix}.stores"] == 1
        assert counters[f"{prefix}.hits"] == 1
        assert counters[f"{prefix}.bytes_written"] == len(blob)
        assert counters[f"{prefix}.bytes_read"] == len(blob)
        assert store.hits == 1

    def test_existing_replay_entries_read_back_unchanged(self, tmp_path):
        value = {"counts": [1, 2, 3], "name": "leela"}
        envelope = {META_KEY: {"engine": "vector"}, "value": value}
        for key, stored in ((_key(1), value), (_key(2), envelope)):
            payload = pickle.dumps(stored, protocol=pickle.HIGHEST_PROTOCOL)
            (tmp_path / f"{key}.pkl").write_bytes(_container(b"RPC2", payload))
        cache = ReplayCache(root=tmp_path, enabled=True)
        assert cache.get(_key(1)) == value
        assert cache.entry_meta(_key(1)) == {}
        assert cache.get(_key(2)) == value
        assert cache.entry_meta(_key(2)) == {"engine": "vector"}

    def test_existing_result_entries_read_back_unchanged(self, tmp_path):
        (tmp_path / f"{KEY}.res").write_bytes(_container(b"RSV1", b'{"x":1}'))
        assert FileResultStore(tmp_path).get(KEY) == b'{"x":1}'

    def test_codecs_write_the_historical_layout(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_MAX_MB_ENV, raising=False)
        monkeypatch.delenv(STORE_MAX_MB_ENV, raising=False)
        value = {"a": [1.5, 2.5]}
        ReplayCache(root=tmp_path, enabled=True).put(KEY, value)
        FileResultStore(tmp_path).put(KEY, b'{"y":2}')
        pickled = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        assert (tmp_path / f"{KEY}.pkl").read_bytes() == _container(b"RPC2", pickled)
        assert (tmp_path / f"{KEY}.res").read_bytes() == _container(b"RSV1", b'{"y":2}')


def _truncated(blob: bytes) -> bytes:
    return blob[: len(blob) // 2]


def _bit_flipped(blob: bytes) -> bytes:
    damaged = bytearray(blob)
    damaged[len(damaged) // 2] ^= 0x01
    return bytes(damaged)


DAMAGE = {
    "corrupt": lambda blob: blob[:4] + b"\x00" * 40,
    "truncated": _truncated,
    "header-only": lambda blob: blob[:3],
    "bit-flipped": _bit_flipped,
    "wrong-magic": lambda blob: b"XXXX" + blob[4:],
    "empty": lambda blob: b"",
}


class TestQuarantine:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_quarantined(self, codec, tmp_path, damage):
        """A damaged entry is a counted miss and is deleted, so it can
        never fail (or lie) twice."""
        store = _open(codec, tmp_path)
        store.write(KEY, bytes(range(256)))
        path = store._path(KEY)
        path.write_bytes(DAMAGE[damage](path.read_bytes()))
        with _metrics.scoped_registry() as registry:
            assert store.read(KEY) is None
        assert not path.exists()
        prefix = CODECS[codec][3]
        counters = registry.snapshot()["counters"]
        assert counters[f"{prefix}.corrupt"] == 1
        assert counters[f"{prefix}.misses"] == 1
        assert f"{prefix}.hits" not in counters
        assert (store.corrupt, store.misses, store.hits) == (1, 1, 0)

    def test_undecodable_payload_is_quarantined(self, codec, tmp_path):
        store = _open(codec, tmp_path)
        store.write(KEY, b"not a pickle")
        assert store.read(KEY, pickle.loads) is None
        assert store.corrupt == 1
        assert not store._path(KEY).exists()

    def test_absent_entry_is_a_plain_miss(self, codec, tmp_path):
        store = _open(codec, tmp_path)
        with _metrics.scoped_registry() as registry:
            assert store.read(KEY) is None
        prefix = CODECS[codec][3]
        assert registry.snapshot()["counters"] == {f"{prefix}.misses": 1}


class TestFailurePolicy:
    def test_io_failures_are_counted_warned_once_and_survived(
        self, codec, tmp_path, capsys
    ):
        blocked = tmp_path / "a-file"
        blocked.write_text("x")
        store = _open(codec, blocked / "store")
        with _metrics.scoped_registry() as registry:
            store.write(_key(1), b"p")  # must not raise
            store.write(_key(2), b"q")
            assert store.read(_key(1)) is None
        prefix = CODECS[codec][3]
        counters = registry.snapshot()["counters"]
        assert counters[f"{prefix}.errors"] == 3
        assert counters[f"{prefix}.misses"] == 1
        assert f"{prefix}.stores" not in counters
        assert capsys.readouterr().err.count("warning:") == 1

    def test_unreadable_entry_is_an_error_and_a_miss(self, codec, tmp_path):
        store = _open(codec, tmp_path)
        store._path(KEY).mkdir()  # reading a directory fails
        with _metrics.scoped_registry() as registry:
            assert store.read(KEY) is None
        prefix = CODECS[codec][3]
        counters = registry.snapshot()["counters"]
        assert counters[f"{prefix}.errors"] == 1
        assert counters[f"{prefix}.misses"] == 1


class TestEviction:
    def test_write_evicts_oldest_until_under_cap(self, codec, tmp_path):
        # Entries are 1020 bytes on disk; a 2.5 KB cap holds two.
        _fill(codec, tmp_path, 4)
        store = _open(codec, tmp_path, max_bytes=2500)
        with _metrics.scoped_registry() as registry:
            store.write(_key(4), b"x" * 1000)
        assert _names(codec, tmp_path) == {_key(3), _key(4)}
        prefix = CODECS[codec][3]
        counters = registry.snapshot()["counters"]
        assert counters[f"{prefix}.evictions"] == 3
        assert counters[f"{prefix}.evicted_bytes"] == 3 * 1020
        assert store.evictions == 3
        assert store.stats()["evictions"] == 3

    def test_own_writes_are_never_evicted(self, codec, tmp_path):
        store = _open(codec, tmp_path, max_bytes=1500)
        for index in range(4):
            store.write(_key(index), b"x" * 1000)
        assert _names(codec, tmp_path) == {_key(index) for index in range(4)}
        assert store.evictions == 0

    def test_read_retouches_and_protects(self, codec, tmp_path):
        _fill(codec, tmp_path, 3)
        store = _open(codec, tmp_path, max_bytes=2500)
        before = store._path(_key(0)).stat().st_mtime
        assert store.read(_key(0)) == b"x" * 1000
        assert store._path(_key(0)).stat().st_mtime > before
        store.write(_key(3), b"x" * 1000)
        assert {_key(0), _key(3)} <= _names(codec, tmp_path)
        assert _key(1) not in _names(codec, tmp_path)

    def test_pins_protect_and_are_reference_counted(self, codec, tmp_path):
        _fill(codec, tmp_path, 4)
        store = _open(codec, tmp_path, max_bytes=1500)
        store.pin(_key(0))
        store.pin(_key(0))
        store.unpin(_key(0))
        assert store.stats()["pinned"] == 1
        store.write(_key(4), b"x" * 1000)
        assert _names(codec, tmp_path) == {_key(0), _key(4)}
        store.unpin(_key(0))
        store.unpin(_key(0))  # over-release is harmless
        assert store.stats()["pinned"] == 0

    def test_unbounded_store_never_evicts(self, codec, tmp_path):
        store = _open(codec, tmp_path)
        for index in range(8):
            store.write(_key(index), b"x" * 2048)
        assert store.evictions == 0
        assert store.entries() == 8


OPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "read", "pin", "unpin"]),
        st.integers(min_value=0, max_value=11),
    ),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("codec_name", sorted(CODECS))
@settings(max_examples=40, deadline=None)
@given(ops=OPS, cap_kb=st.integers(min_value=1, max_value=16))
def test_eviction_never_takes_live_or_pinned_entries(codec_name, ops, cap_kb):
    """The GC safety rule: whatever the operation sequence and however
    undersized the cap, no entry this store wrote or read, and no entry
    pinned while on disk, is ever evicted by it."""
    with tempfile.TemporaryDirectory() as tmp:
        # Keys 0-5 are another process's entries (fair game), 6-11 ours.
        _fill(codec_name, tmp, 6, payload_bytes=2048)
        store = _open(codec_name, tmp, max_bytes=cap_kb * 1024)
        live, pins, held = set(), Counter(), set()
        for op, index in ops:
            key = _key(index)
            if op == "write" and index >= 6:
                store.write(key, key.encode() * 64)
                live.add(key)
            elif op == "read" and store.read(key) is not None:
                live.add(key)
            elif op == "pin":
                store.pin(key)
                pins[key] += 1
                if key in _names(codec_name, tmp):
                    held.add(key)
            elif op == "unpin" and pins[key]:
                store.unpin(key)
                pins[key] -= 1
                if not pins[key]:
                    held.discard(key)
            assert live | held <= _names(codec_name, tmp)


class TestTempSweep:
    def _temp(self, root, name, age_s):
        path = Path(root) / name
        path.write_bytes(b"partial write")
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))
        return path

    def test_open_sweeps_only_stale_orphans(self, codec, tmp_path):
        """A writer killed mid-store leaves a *.tmp orphan; the next open
        removes it once it is clearly abandoned, and leaves younger ones
        (a live writer's) alone."""
        stale = self._temp(tmp_path, "orphan.tmp", TMP_SWEEP_AGE_S + 60)
        young = self._temp(tmp_path, "inflight.tmp", TMP_SWEEP_AGE_S - 60)
        with _metrics.scoped_registry() as registry:
            store = _open(codec, tmp_path)
        assert not stale.exists()
        assert young.exists()
        assert store.tmp_swept == 1
        prefix = CODECS[codec][3]
        assert registry.snapshot()["counters"][f"{prefix}.tmp_swept"] == 1
        assert store.stats()["tmp_files"] == 1

    def test_zero_age_sweep_takes_every_orphan_but_no_entry(self, codec, tmp_path):
        store = _open(codec, tmp_path)
        store.write(KEY, b"keep")
        os.utime(store._path(KEY), (1, 1))
        self._temp(tmp_path, "inflight.tmp", 0)
        assert store.sweep_stale_tmp(max_age_s=0.0) == 1
        assert store.read(KEY) == b"keep"
        assert store.stats()["tmp_files"] == 0


class TestMaintenance:
    def test_stats_is_one_directory_pass(self, codec, tmp_path, monkeypatch):
        store = _open(codec, tmp_path, max_bytes=1 << 20)
        store.write(_key(1), b"a" * 10)
        store.write(_key(2), b"b" * 20)
        (tmp_path / "orphan.tmp").write_bytes(b"x")
        (tmp_path / "unrelated.txt").write_bytes(b"x")
        calls = []
        scandir = os.scandir

        def counting(path):
            calls.append(path)
            return scandir(path)

        monkeypatch.setattr("repro.store.os.scandir", counting)
        stats = store.stats()
        assert len(calls) == 1
        assert stats["entries"] == 2
        assert stats["total_bytes"] == 2 * (4 + 16) + 30
        assert stats["tmp_files"] == 1
        assert stats["max_bytes"] == 1 << 20
        assert stats["root"] == str(tmp_path)

    def test_stats_of_a_missing_directory(self, codec, tmp_path):
        stats = _open(codec, tmp_path / "absent").stats()
        assert (stats["entries"], stats["total_bytes"], stats["tmp_files"]) == (0, 0, 0)

    def test_clear_removes_entries_only(self, codec, tmp_path):
        store = _open(codec, tmp_path)
        store.write(_key(1), b"a")
        store.write(_key(2), b"b")
        (tmp_path / "inflight.tmp").write_bytes(b"x")
        assert store.clear() == 2
        assert store.entries() == 0
        assert (tmp_path / "inflight.tmp").exists()


@pytest.mark.parametrize("parse,variable", [
    (cache_max_bytes, CACHE_MAX_MB_ENV),
    (store_max_bytes, STORE_MAX_MB_ENV),
], ids=["replay", "result"])
@pytest.mark.parametrize("raw,expected", [
    (None, None), ("", None), ("  ", None), ("nope", None), ("0", None),
    ("-3", None), ("nan", None), ("inf", None),
    ("2", 2 * 1024 * 1024), ("0.5", 512 * 1024), (" 8 ", 8 * 1024 * 1024),
], ids=["unset", "empty", "blank", "text", "zero", "negative", "nan",
        "inf", "2", "0.5", "padded"])
def test_cap_parsing(monkeypatch, parse, variable, raw, expected):
    if raw is None:
        monkeypatch.delenv(variable, raising=False)
    else:
        monkeypatch.setenv(variable, raw)
    assert parse() == expected


def test_constructors_take_the_cap_from_their_variable(codec, tmp_path, monkeypatch):
    variable = CACHE_MAX_MB_ENV if codec == "replay" else STORE_MAX_MB_ENV
    monkeypatch.setenv(variable, "1")
    assert _open(codec, tmp_path).max_bytes == 1024 * 1024
    assert _open(codec, tmp_path, max_bytes=42).max_bytes == 42
