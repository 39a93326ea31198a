"""Content-addressed result store shared across serve instances.

The fleet-wide generalisation of the replay cache's persistence idea:
where :class:`~repro.sim.replay_cache.ReplayCache` shares *replay*
work between processes, the result store shares finished *job payloads*
between shards, keyed by :func:`~repro.serve.jobs.spec_digest`.  A
worker about to execute a job first probes the store; a hit finishes
the job instantly with the stored canonical bytes — cross-instance
dedup — and every computed payload is stored for the rest of the fleet.

Because payloads are canonical JSON serialised exactly once
(:func:`~repro.serve.jobs.execute_spec`), a store hit is byte-identical
to recomputation, so cross-shard dedup preserves the byte-identity
contract the single daemon already guarantees (pinned by
``tests/serve/test_identity.py``).

Backends
--------

- :class:`FileResultStore` — a directory of checksummed payload files
  (a :class:`repro.store.BlobStore`: magic ``RSV1``, suffix ``.res``,
  counters ``serve.store.*``), safe for any number of shard processes
  sharing one filesystem.  This is the normal fleet deployment: every
  shard points ``REPRO_SERVE_STORE_DIR`` at the same directory.
- :class:`HTTPResultStore` — speaks ``GET/PUT /store/<digest>`` to
  another serve instance (every shard exposes its store over those
  endpoints), for fleets that span hosts without a shared filesystem.

Store failures are never fatal: a broken backend degrades to
recomputation (counted in ``serve.store.errors``), exactly like a
replay-cache miss.

Garbage collection
------------------

The file backend shares the replay cache's GC (:mod:`repro.store`),
capped by ``REPRO_SERVE_STORE_MAX_MB``.  The worker pool pins every
in-flight digest (:meth:`ResultStore.pin`) for the duration of its
execution, so a payload cannot vanish between a router routing decision
and the owning worker's store probe.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Dict, Optional, Union

from repro.errors import ServeError
from repro.obs import metrics as _metrics
from repro.store import BlobStore, env_max_bytes

#: Environment variable naming a shared store directory.
STORE_DIR_ENV = "REPRO_SERVE_STORE_DIR"

#: Environment variable capping the file backend's size in megabytes.
STORE_MAX_MB_ENV = "REPRO_SERVE_STORE_MAX_MB"

#: Environment variable naming a remote store base URL (a serve
#: instance exposing ``/store``); the directory variable wins if both
#: are set.
STORE_URL_ENV = "REPRO_SERVE_STORE_URL"

#: Stored-entry container magic (:func:`repro.store.seal`); the
#: payload is the raw result bytes.
STORE_MAGIC = b"RSV1"

#: Digests are run-manifest config digests: lowercase hex.  Anything
#: else is rejected before it can touch the filesystem or a URL.
_DIGEST_RE = re.compile(r"^[0-9a-f]{8,128}$")


def store_max_bytes() -> Optional[int]:
    """The size cap set by ``REPRO_SERVE_STORE_MAX_MB`` (None = unbounded)."""
    return env_max_bytes(STORE_MAX_MB_ENV)


def check_digest(digest: str) -> str:
    """Validate a store key (defends the file/URL namespace)."""
    if not isinstance(digest, str) or not _DIGEST_RE.match(digest):
        raise ServeError(f"invalid result digest {digest!r}")
    return digest


class ResultStore:
    """Interface: content-addressed ``bytes`` by spec digest."""

    def get(self, digest: str) -> Optional[bytes]:
        """The stored payload, or None on miss (or any backend trouble)."""
        raise NotImplementedError

    def put(self, digest: str, payload: bytes) -> None:
        """Store a payload (best-effort: failures degrade, never raise)."""
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        """JSON-ready backend summary for health endpoints."""
        raise NotImplementedError

    def pin(self, digest: str) -> None:
        """Protect a digest from eviction while it is in flight.

        Pins are reference-counted; callers must balance with
        :meth:`unpin`.  Backends without eviction ignore pins.
        """

    def unpin(self, digest: str) -> None:
        """Release one :meth:`pin` reference on a digest."""


class FileResultStore(BlobStore, ResultStore):
    """Shared-directory backend (multi-process safe, checksummed).

    Entries are one file per digest; a corrupt entry (torn write from a
    crashed shard, bit rot) is quarantined — deleted, counted in
    ``serve.store.corrupt``, recomputed — never returned.  ``max_bytes``
    defaults to ``REPRO_SERVE_STORE_MAX_MB``; None means unbounded.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(
            root,
            STORE_MAGIC,
            ".res",
            "serve.store",
            store_max_bytes() if max_bytes is None else max_bytes,
        )
        self.sweep_stale_tmp()

    def get(self, digest: str) -> Optional[bytes]:
        return self.read(check_digest(digest))

    def put(self, digest: str, payload: bytes) -> None:
        self.write(check_digest(digest), payload)

    def stats(self) -> Dict[str, object]:
        return {"backend": "file", **super().stats()}


class HTTPResultStore(ResultStore):
    """Remote backend over a serve instance's ``/store`` endpoints."""

    def __init__(self, url: str, timeout_s: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s

    def _request(self, method: str, digest: str, data=None) -> bytes:
        import urllib.request

        request = urllib.request.Request(
            f"{self.url}/store/{check_digest(digest)}",
            data=data,
            method=method,
        )
        with urllib.request.urlopen(
            request, timeout=self.timeout_s
        ) as response:
            return response.read()

    def get(self, digest: str) -> Optional[bytes]:
        import urllib.error

        try:
            payload = self._request("GET", digest)
        except (urllib.error.URLError, OSError, ValueError) as error:
            if getattr(error, "code", None) != 404:
                _metrics.counter_add("serve.store.errors")
            _metrics.counter_add("serve.store.misses")
            return None
        _metrics.counter_add("serve.store.hits")
        return payload

    def put(self, digest: str, payload: bytes) -> None:
        import urllib.error

        try:
            self._request("PUT", digest, data=payload)
        except (urllib.error.URLError, OSError, ValueError):
            _metrics.counter_add("serve.store.errors")
            return
        _metrics.counter_add("serve.store.stores")

    def stats(self) -> Dict[str, object]:
        return {"backend": "http", "url": self.url}


def resolve_store(
    store_dir: Optional[str] = None, store_url: Optional[str] = None
) -> Optional[ResultStore]:
    """Build the configured store backend, or None when unconfigured.

    Explicit arguments win over ``REPRO_SERVE_STORE_DIR`` /
    ``REPRO_SERVE_STORE_URL``; a directory wins over a URL.  No
    configuration means no cross-instance sharing — exactly the
    single-daemon behaviour before the fleet existed.
    """
    if store_dir is None:
        store_dir = os.environ.get(STORE_DIR_ENV, "").strip() or None
    if store_url is None:
        store_url = os.environ.get(STORE_URL_ENV, "").strip() or None
    if store_dir is not None:
        return FileResultStore(store_dir)
    if store_url is not None:
        return HTTPResultStore(store_url)
    return None
