"""Persistent on-disk cache for expensive replay results.

The two replay stages are pure functions of their inputs: a
:class:`~repro.sim.hierarchy.PrivateResult` depends only on the trace
contents and the private-level architecture (core count and L1/L2
geometry), and an :class:`~repro.sim.llc.LLCCounts` additionally on the
LLC geometry and MLP constants.  This module caches both on disk,
keyed by a content fingerprint, so repeated experiment runs, the test
suite and parallel workers all skip redundant replays.

Keys are *content-addressed*: the trace fingerprint hashes the raw
column bytes (not the generator seed), so any trace — synthetic, loaded
from a file, or hand-built — caches correctly, and regenerating the same
(workload, seed, length) trace in another process produces the same key.
The cache version is part of every key; bump :data:`CACHE_VERSION`
whenever replay semantics change to invalidate stale entries.

Configuration (environment):

- ``REPRO_CACHE_DIR`` — cache directory (default
  ``~/.cache/repro/replay``).
- ``REPRO_REPLAY_CACHE`` — set to ``0`` to disable entirely.
- ``REPRO_CACHE_MAX_MB`` — size cap in megabytes (unset = unbounded).

Entries live in a :class:`repro.store.BlobStore` (magic ``RPC2``,
suffix ``.pkl``, counters ``replay_cache.*``), which owns the container,
atomic writes, quarantine, the live-set LRU cap, the temp sweep and the
failure policy: a write that fails (full disk, unwritable
``REPRO_CACHE_DIR``) is counted in ``replay_cache.errors``, warned
about once, and the run carries on exactly as with a working cache.
This module adds the keys and the pickle codec.  Traces shorter than
``min_accesses`` are not cached: unit-test and hypothesis traces would
otherwise litter the cache with thousands of tiny files.

Invariants
----------

- A cache hit is indistinguishable from recomputation: values are the
  exact pickled :class:`~repro.sim.hierarchy.PrivateResult` /
  :class:`~repro.sim.llc.LLCCounts` objects the replay produced, and
  the checksum guarantees the bytes are the bytes that were stored.
- Keys cover *every* input the replay depends on and nothing more:
  the trace content fingerprint (:func:`trace_fingerprint` over the raw
  column bytes), the private-geometry fields (:func:`private_arch_key`),
  the LLC-geometry fields (:func:`llc_geometry_key`), and
  :data:`CACHE_VERSION`.  Timing/energy constants are deliberately
  excluded — they are applied after replay.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Optional

from repro.sim.config import ArchitectureConfig
from repro.store import BlobStore, env_max_bytes, unseal
from repro.trace.stream import Trace

#: Bump to invalidate all previously cached replays.
#: 2: entries gained the checksummed container format (magic + digest).
CACHE_VERSION = 2

#: Entry container magic (:func:`repro.store.seal`); the payload is the
#: pickled value.
ENTRY_MAGIC = b"RPC2"

#: Environment variable naming the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the cache ("0" disables).
CACHE_ENABLE_ENV = "REPRO_REPLAY_CACHE"

#: Environment variable capping the cache size in megabytes.
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

#: Traces shorter than this are never cached (tests, tiny tools).
DEFAULT_MIN_ACCESSES = 10_000

#: Marker key of the provenance envelope earlier versions wrapped some
#: entries in (``{META_KEY: {...}, "value": value}``).  Nothing writes
#: it any more; :meth:`ReplayCache.get` still unwraps it, so those
#: entries stay valid without a :data:`CACHE_VERSION` bump.
META_KEY = "__replay_cache_meta__"


def _unwrap(obj: Any) -> Any:
    """The stored value, without an older entry's provenance envelope."""
    if isinstance(obj, dict) and META_KEY in obj:
        return obj["value"]
    return obj


def default_cache_dir() -> Path:
    """The configured cache directory (not created until first write)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "replay"


def cache_enabled() -> bool:
    """Whether the on-disk cache is enabled (``REPRO_REPLAY_CACHE``)."""
    return os.environ.get(CACHE_ENABLE_ENV, "1") != "0"


def cache_max_bytes() -> Optional[int]:
    """The size cap set by ``REPRO_CACHE_MAX_MB`` (None = unbounded)."""
    return env_max_bytes(CACHE_MAX_MB_ENV)


def trace_fingerprint(trace: Trace) -> str:
    """Content hash of a trace's columns (name excluded: it does not
    affect replay events)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np_bytes(trace.addresses))
    digest.update(np_bytes(trace.writes))
    digest.update(np_bytes(trace.thread_ids))
    digest.update(np_bytes(trace.gaps))
    return digest.hexdigest()


def np_bytes(array) -> bytes:
    """Raw bytes of an array (C-contiguous view)."""
    import numpy as np

    return np.ascontiguousarray(array).tobytes()


def private_arch_key(arch: ArchitectureConfig) -> tuple:
    """The architecture fields :func:`filter_private` depends on.

    Timing/energy constants are deliberately excluded so sensitivity
    sweeps over them reuse one private replay.
    """
    return (
        arch.n_cores,
        arch.l1d.capacity_bytes,
        arch.l1d.associativity,
        arch.l1d.block_bytes,
        arch.l2.capacity_bytes,
        arch.l2.associativity,
        arch.l2.block_bytes,
    )


def llc_geometry_key(
    arch: ArchitectureConfig, capacity_bytes: int
) -> tuple:
    """The parameters :func:`simulate_llc` depends on beyond the stream."""
    return (
        capacity_bytes,
        arch.llc_associativity,
        arch.llc_block_bytes,
        arch.n_cores,
        arch.mlp_window_instructions,
        arch.max_mlp,
        arch.llc_replacement,
    )


def _key_digest(*parts: Any) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((CACHE_VERSION,) + parts).encode())
    return digest.hexdigest()


def _unpack(blob: bytes) -> Any:
    """Verify and unpickle one entry container; raises ValueError on any
    damage (wrong magic, truncated header, checksum mismatch)."""
    return pickle.loads(unseal(ENTRY_MAGIC, blob))


class ReplayCache(BlobStore):
    """A content-addressed, checksummed pickle store for replay results.

    Parameters
    ----------
    root:
        Cache directory; defaults to :func:`default_cache_dir`.
    enabled:
        Force-enable/disable; defaults to :func:`cache_enabled`.
    min_accesses:
        Traces shorter than this skip the cache entirely.
    max_bytes:
        Size cap for LRU-by-mtime eviction; defaults to
        :func:`cache_max_bytes` (None = unbounded).
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        enabled: Optional[bool] = None,
        min_accesses: int = DEFAULT_MIN_ACCESSES,
        max_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(
            root if root is not None else default_cache_dir(),
            ENTRY_MAGIC,
            ".pkl",
            "replay_cache",
            cache_max_bytes() if max_bytes is None else max_bytes,
        )
        self.enabled = cache_enabled() if enabled is None else enabled
        self.min_accesses = min_accesses
        if self.enabled:
            self.sweep_stale_tmp()

    # -- keys -------------------------------------------------------------

    def private_key(self, trace_fp: str, arch: ArchitectureConfig) -> str:
        """Cache key for a private-level replay."""
        return "private-" + _key_digest(trace_fp, private_arch_key(arch))

    def llc_key(
        self, trace_fp: str, arch: ArchitectureConfig, capacity_bytes: int
    ) -> str:
        """Cache key for an LLC replay (stream derives deterministically
        from the trace + private-level architecture)."""
        return "llc-" + _key_digest(
            trace_fp, private_arch_key(arch), llc_geometry_key(arch, capacity_bytes)
        )

    # -- codec ------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """Load a cached value, or None on a miss (damaged entries are
        quarantined and recomputed by the caller)."""
        if not self.enabled:
            return None
        stored = self.read(key, pickle.loads)
        return None if stored is None else _unwrap(stored)

    def put(self, key: str, value: Any) -> None:
        """Store a value (atomic, concurrent-writer safe, size-capped)."""
        if self.enabled:
            self.write(key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def stats(self) -> dict:
        """The store snapshot plus the enabled flag, as ``repro-cli
        cache``, the serve health endpoint and the doctor render it."""
        return {"enabled": self.enabled, **super().stats()}

    def should_cache(self, trace: Trace) -> bool:
        """Whether a trace is worth caching (enabled + long enough)."""
        return self.enabled and len(trace) >= self.min_accesses


_default_cache: Optional[ReplayCache] = None


def default_cache() -> ReplayCache:
    """The process-wide cache instance (honours the env configuration
    current at first use)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = ReplayCache()
    return _default_cache


def reset_default_cache() -> None:
    """Forget the process-wide instance (tests re-point the env vars)."""
    global _default_cache
    _default_cache = None
