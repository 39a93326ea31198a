"""Tests for the content-addressed result store (fleet dedup substrate)."""

from __future__ import annotations

import os

import pytest

from repro.errors import ServeError
from repro.obs import metrics as _metrics
from repro.serve.store import (
    STORE_DIR_ENV,
    STORE_MAGIC,
    FileResultStore,
    check_digest,
    resolve_store,
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
        assert resolve_store() is None

    def test_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        store = resolve_store()
        assert isinstance(store, FileResultStore)
        assert store.root == tmp_path

    def test_arguments_win_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "env"))
        store = resolve_store(store_dir=str(tmp_path / "arg"))
        assert isinstance(store, FileResultStore)
        assert store.root == tmp_path / "arg"


class TestHTTPStore:
    """The store behind a live daemon's HTTP surface."""

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
