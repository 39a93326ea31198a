"""Tests for the content-addressed result store (fleet dedup substrate)."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ServeError
from repro.obs import metrics as _metrics
from repro.obs.metrics import MetricsRegistry
from repro.serve.store import (
    STORE_DIR_ENV,
    STORE_MAGIC,
    STORE_MAX_MB_ENV,
    STORE_URL_ENV,
    FileResultStore,
    HTTPResultStore,
    check_digest,
    resolve_store,
    store_max_bytes,
)

DIGEST = "ab" * 16


class TestDigestValidation:
    def test_hex_digests_pass(self):
        assert check_digest(DIGEST) == DIGEST

    @pytest.mark.parametrize("bad", [
        "", "short", "../../etc/passwd", "ABCDEF00" * 4, "xy" * 16,
        "a" * 7, 123,
    ])
    def test_bad_digests_rejected(self, bad):
        with pytest.raises(ServeError):
            check_digest(bad)


class TestFileStore:
    def test_roundtrip(self, tmp_path):
        store = FileResultStore(tmp_path / "store")
        assert store.get(DIGEST) is None
        store.put(DIGEST, b'{"x":1}')
        assert store.get(DIGEST) == b'{"x":1}'

    def test_entries_are_checksummed_containers(self, tmp_path):
        store = FileResultStore(tmp_path)
        store.put(DIGEST, b"payload")
        blob = (tmp_path / f"{DIGEST}.res").read_bytes()
        assert blob.startswith(STORE_MAGIC)
        assert blob.endswith(b"payload")

    def test_corrupt_entry_quarantined_not_returned(self, tmp_path):
        store = FileResultStore(tmp_path)
        store.put(DIGEST, b"payload")
        path = tmp_path / f"{DIGEST}.res"
        path.write_bytes(path.read_bytes()[:-2] + b"xx")
        with _metrics.scoped_registry() as registry:
            assert store.get(DIGEST) is None
        assert not path.exists(), "corrupt entry must be quarantined"
        assert registry.snapshot()["counters"]["serve.store.corrupt"] == 1

    def test_put_failure_degrades_without_raising(self, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("x")
        store = FileResultStore(blocked / "store")
        with _metrics.scoped_registry() as registry:
            store.put(DIGEST, b"payload")  # must not raise
        assert registry.snapshot()["counters"]["serve.store.errors"] == 1

    def test_counters(self, tmp_path):
        store = FileResultStore(tmp_path)
        with _metrics.scoped_registry() as registry:
            store.get(DIGEST)
            store.put(DIGEST, b"p")
            store.get(DIGEST)
        counters = registry.snapshot()["counters"]
        assert counters["serve.store.misses"] == 1
        assert counters["serve.store.stores"] == 1
        assert counters["serve.store.hits"] == 1

    def test_stats(self, tmp_path):
        store = FileResultStore(tmp_path)
        store.put(DIGEST, b"payload")
        stats = store.stats()
        assert stats["backend"] == "file"
        assert stats["entries"] == 1
        assert stats["total_bytes"] > len(b"payload")

    def test_open_reclaims_orphaned_temp_files(self, tmp_path):
        """A shard SIGKILLed between temp-file creation and the rename
        leaves an orphan: reopening the store removes it once it is
        stale, and stats() counts the young ones still in flight."""
        import time

        from repro.store import TMP_SWEEP_AGE_S

        stale = tmp_path / f"{DIGEST}.res.orphan.tmp"
        young = tmp_path / f"{DIGEST}.res.inflight.tmp"
        for path, age in ((stale, TMP_SWEEP_AGE_S + 60), (young, 1.0)):
            path.write_bytes(b"partial")
            os.utime(path, (time.time() - age, time.time() - age))
        store = FileResultStore(tmp_path)
        assert not stale.exists()
        assert young.exists()
        assert store.stats()["tmp_files"] == 1


class TestResolveStore:
    def test_unconfigured_is_none(self, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        monkeypatch.delenv(STORE_URL_ENV, raising=False)
        assert resolve_store() is None

    def test_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        store = resolve_store()
        assert isinstance(store, FileResultStore)
        assert store.root == tmp_path

    def test_url_env(self, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        monkeypatch.setenv(STORE_URL_ENV, "http://127.0.0.1:1/")
        store = resolve_store()
        assert isinstance(store, HTTPResultStore)
        assert store.url == "http://127.0.0.1:1"

    def test_dir_wins_over_url(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(STORE_URL_ENV, "http://127.0.0.1:1")
        assert isinstance(resolve_store(), FileResultStore)

    def test_arguments_win_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_URL_ENV, "http://127.0.0.1:1")
        store = resolve_store(store_dir=str(tmp_path))
        assert isinstance(store, FileResultStore)


class TestHTTPStore:
    """The remote backend against a live daemon's /store endpoints."""

    @pytest.fixture
    def stored_server(self, tmp_path):
        from repro.serve import ExperimentServer

        server = ExperimentServer(
            port=0, workers=1, state_dir=str(tmp_path / "state"),
            store_dir=str(tmp_path / "store"),
        )
        server.start()
        yield server
        server.drain()

    def test_roundtrip_over_http(self, stored_server):
        remote = HTTPResultStore(stored_server.url)
        assert remote.get(DIGEST) is None
        remote.put(DIGEST, b'{"y":2}')
        assert remote.get(DIGEST) == b'{"y":2}'
        # and it landed in the server's file store
        assert stored_server.store.get(DIGEST) == b'{"y":2}'

    def test_unreachable_backend_degrades_to_none(self):
        remote = HTTPResultStore("http://127.0.0.1:1", timeout_s=0.2)
        with _metrics.scoped_registry() as registry:
            assert remote.get(DIGEST) is None
            remote.put(DIGEST, b"p")  # must not raise
        assert registry.snapshot()["counters"]["serve.store.errors"] == 2

    def test_store_endpoints_without_store_are_503(self, running_server):
        from repro.serve import ServeClient

        client = ServeClient(running_server.url)
        with pytest.raises(ServeError) as info:
            client.store_get(DIGEST)
        assert info.value.http_status == 503

    def test_health_reports_store_stats(self, stored_server):
        from repro.serve import ServeClient

        health = ServeClient(stored_server.url).health()
        assert health["store"]["backend"] == "file"

    def test_worker_publishes_and_consumes(self, tmp_path):
        """Two daemons sharing a store directory: the second satisfies a
        duplicate spec from the store without executing it."""
        from repro.serve import ExperimentServer, ServeClient
        from repro.serve.jobs import normalize_spec, spec_digest

        store_dir = str(tmp_path / "store")
        spec = {"experiment": "table2", "scale": 0.02, "seed": 5}
        digest = spec_digest(normalize_spec(spec))

        first = ExperimentServer(
            port=0, workers=1, state_dir=str(tmp_path / "a"),
            store_dir=store_dir,
        ).start()
        try:
            client = ServeClient(first.url)
            job = client.submit(**spec)["job"]
            assert client.wait(job["id"], timeout_s=120)["state"] == "done"
            payload = client.result_bytes(job["id"])
            assert first.store.get(digest) == payload
        finally:
            first.drain()

        second = ExperimentServer(
            port=0, workers=1, state_dir=str(tmp_path / "b"),
            store_dir=store_dir,
        ).start()
        try:
            client = ServeClient(second.url)
            job = client.submit(**spec)["job"]
            assert client.wait(job["id"], timeout_s=120)["state"] == "done"
            assert client.result_bytes(job["id"]) == payload
            counters = client.metrics()["counters"]
            assert counters.get("serve.jobs.executed", 0) == 0
            assert counters["serve.jobs.store_satisfied"] == 1
            assert counters["serve.store.hits"] == 1
        finally:
            second.drain()


def _digest(index: int) -> str:
    return f"{index:032x}"


def _fill(root, count: int, payload_bytes: int = 1000):
    """Seed ``count`` entries with strictly increasing mtimes via an
    unbounded writer (its live set is irrelevant to later instances)."""
    import time as _time

    writer = FileResultStore(root, max_bytes=None)
    base = _time.time() - 1000.0
    for index in range(count):
        writer.put(_digest(index), b"x" * payload_bytes)
        path = root / f"{_digest(index)}.res"
        os.utime(path, times=(base + index, base + index))
    return writer


class TestStoreGC:
    @pytest.mark.parametrize("raw,expected", [
        ("", None), ("  ", None), ("nan-ish", None), ("0", None),
        ("-3", None), ("2", 2 * 1024 * 1024), ("0.5", 512 * 1024),
    ])
    def test_store_max_bytes_parsing(self, monkeypatch, raw, expected):
        monkeypatch.setenv(STORE_MAX_MB_ENV, raw)
        assert store_max_bytes() == expected

    def test_store_max_bytes_unset(self, monkeypatch):
        monkeypatch.delenv(STORE_MAX_MB_ENV, raising=False)
        assert store_max_bytes() is None

    def test_env_cap_picked_up_by_constructor(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_MAX_MB_ENV, "1")
        assert FileResultStore(tmp_path).max_bytes == 1024 * 1024
        assert FileResultStore(tmp_path, max_bytes=42).max_bytes == 42

    def test_put_evicts_oldest_until_under_cap(self, tmp_path):
        # Entries are ~1020 bytes packed; a 2.5 KB cap holds two.
        _fill(tmp_path, 4)
        store = FileResultStore(tmp_path, max_bytes=2500)
        with _metrics.scoped_registry() as registry:
            store.put(_digest(4), b"x" * 1000)
            counters = registry.snapshot()["counters"]
        # Oldest three evicted; the newest old entry and the fresh
        # write survive.
        survivors = sorted(p.name for p in tmp_path.glob("*.res"))
        assert survivors == sorted(
            [f"{_digest(3)}.res", f"{_digest(4)}.res"]
        )
        assert store.evictions == 3
        assert counters.get("serve.store.evictions") == 3
        assert counters.get("serve.store.evicted_bytes", 0) > 0
        assert store.stats()["evictions"] == 3

    def test_own_writes_are_never_evicted(self, tmp_path):
        # A writer's own entries are all live: the cap is transiently
        # exceeded rather than ever losing a payload it produced.
        store = FileResultStore(tmp_path, max_bytes=1500)
        for index in range(4):
            store.put(_digest(index), b"x" * 1000)
        assert len(list(tmp_path.glob("*.res"))) == 4
        assert store.evictions == 0

    def test_read_marks_live_and_retouches(self, tmp_path):
        _fill(tmp_path, 3)
        store = FileResultStore(tmp_path, max_bytes=2500)
        # Reading the *oldest* entry protects it in two independent
        # ways: it joins this store's live set, and its mtime is
        # re-touched to now (LRU recency).
        assert store.get(_digest(0)) == b"x" * 1000
        store.put(_digest(3), b"x" * 1000)
        names = {p.name for p in tmp_path.glob("*.res")}
        assert f"{_digest(0)}.res" in names
        assert f"{_digest(3)}.res" in names

    def test_pinned_digest_never_evicted(self, tmp_path):
        _fill(tmp_path, 4)
        store = FileResultStore(tmp_path, max_bytes=1500)
        store.pin(_digest(0))
        try:
            store.put(_digest(4), b"x" * 1000)
            names = {p.name for p in tmp_path.glob("*.res")}
            assert f"{_digest(0)}.res" in names  # oldest, but pinned
            assert f"{_digest(4)}.res" in names  # just written (live)
        finally:
            store.unpin(_digest(0))

    def test_pin_refcounts(self, tmp_path):
        store = FileResultStore(tmp_path, max_bytes=10)
        store.pin(DIGEST)
        store.pin(DIGEST)
        store.unpin(DIGEST)
        assert store.stats()["pinned"] == 1
        store.unpin(DIGEST)
        assert store.stats()["pinned"] == 0
        store.unpin(DIGEST)  # over-release is harmless
        assert store.stats()["pinned"] == 0
