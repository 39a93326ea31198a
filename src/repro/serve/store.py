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

The store is :class:`FileResultStore`: a directory of checksummed
payload files (a :class:`repro.store.BlobStore`: magic ``RSV1``, suffix
``.res``, counters ``serve.store.*``), safe for any number of shard
processes sharing one filesystem.  Every shard of a fleet points
``REPRO_SERVE_STORE_DIR`` at the same directory.  Only workers write
to it: no HTTP endpoint accepts store bytes, so every entry is a
payload some worker computed.

Store failures are never fatal: a broken entry or directory degrades
to recomputation (counted in ``serve.store.corrupt`` /
``serve.store.errors``), exactly like a replay-cache miss.

Garbage collection
------------------

The store shares the replay cache's GC (:mod:`repro.store`),
capped by ``REPRO_SERVE_STORE_MAX_MB``.  The worker pool pins every
in-flight digest (:meth:`FileResultStore.pin`) for the duration of its
execution, so a payload cannot vanish between a router routing decision
and the owning worker's store probe.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Dict, Optional, Union

from repro.errors import ServeError
from repro.store import BlobStore, env_max_bytes

#: Environment variable naming a shared store directory.
STORE_DIR_ENV = "REPRO_SERVE_STORE_DIR"

#: Environment variable capping the store's size in megabytes.
STORE_MAX_MB_ENV = "REPRO_SERVE_STORE_MAX_MB"

#: Stored-entry container magic (:func:`repro.store.seal`); the
#: payload is the raw result bytes.
STORE_MAGIC = b"RSV1"

#: Digests are run-manifest config digests: lowercase hex.  Anything
#: else is rejected before it can touch the filesystem.
_DIGEST_RE = re.compile(r"^[0-9a-f]{8,128}$")


def store_max_bytes() -> Optional[int]:
    """The size cap set by ``REPRO_SERVE_STORE_MAX_MB`` (None = unbounded)."""
    return env_max_bytes(STORE_MAX_MB_ENV)


def check_digest(digest: str) -> str:
    """Validate a store key (defends the file namespace)."""
    if not isinstance(digest, str) or not _DIGEST_RE.match(digest):
        raise ServeError(f"invalid result digest {digest!r}")
    return digest


class FileResultStore(BlobStore):
    """The shared result-store directory (multi-process safe, checksummed).

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


def resolve_store(
    store_dir: Optional[str] = None,
) -> Optional[FileResultStore]:
    """The configured store, or None when unconfigured.

    An explicit directory wins over ``REPRO_SERVE_STORE_DIR``.  No
    configuration means no cross-instance sharing — exactly the
    single-daemon behaviour before the fleet existed.
    """
    if store_dir is None:
        store_dir = os.environ.get(STORE_DIR_ENV, "").strip() or None
    if store_dir is None:
        return None
    return FileResultStore(store_dir)
