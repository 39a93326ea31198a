"""One checksummed, size-capped blob store on a shared directory.

The replay cache (:mod:`repro.sim.replay_cache`) and the serve result
store (:mod:`repro.serve.store`) are directories of immutable,
content-addressed entries shared by concurrent processes.  This module
is the one place that knows their on-disk format and GC safety rule;
each store adds only its keys and codec.

- An entry ``<key><suffix>`` holds ``magic + blake2b(payload, 16) +
  payload``; writes rename a sibling ``*.tmp`` file over the target
  (:func:`atomic_write`), so readers never see a torn entry.
- A read whose container fails verification, or whose payload the
  codec cannot decode, deletes the entry (quarantine): damaged bytes
  are recomputed, never returned.
- An I/O failure is counted and warned about once on stderr; the caller
  carries on without the entry, exactly as after a miss.
- With a cap, every write evicts least-recently-used entries (mtime
  order; a hit re-touches its entry) until back under it, but never an
  entry this instance wrote or read (its *live set*) nor a pinned key:
  the cap is transiently exceeded instead.
- Opening a store sweeps ``*.tmp`` orphans of killed writers older than
  :data:`TMP_SWEEP_AGE_S` (younger ones may belong to a live writer).

Counters (:mod:`repro.obs`) under each store's prefix: ``.hits``,
``.misses`` (every read that returned nothing), ``.corrupt``,
``.errors``, ``.stores``, ``.bytes_read``, ``.bytes_written``,
``.evictions``, ``.evicted_bytes`` and ``.tmp_swept``.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import tempfile
import threading
import time
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.obs import metrics as _metrics

#: Bytes of blake2b digest embedded after the magic.
DIGEST_SIZE = 16

#: Suffix of in-flight (or orphaned) atomic-write temp files.
TMP_SUFFIX = ".tmp"

#: Temp files older than this are swept when a store opens.
TMP_SWEEP_AGE_S = 300.0


def env_max_bytes(name: str) -> Optional[int]:
    """The size cap in bytes set in megabytes by environment variable
    ``name``, or None for unbounded (unset, empty, non-numeric or <= 0)."""
    try:
        megabytes = float(os.environ.get(name, ""))
    except ValueError:
        return None
    if not 0 < megabytes < math.inf:
        return None
    return int(megabytes * 1024 * 1024)


def seal(magic: bytes, payload: bytes) -> bytes:
    """Wrap a payload in the checksummed container."""
    check = hashlib.blake2b(payload, digest_size=DIGEST_SIZE).digest()
    return magic + check + payload


def unseal(magic: bytes, blob: bytes) -> bytes:
    """Verify a container and return its payload; raises ValueError on
    any damage (wrong magic, truncated header, checksum mismatch)."""
    header = len(magic) + DIGEST_SIZE
    if len(blob) < header or not blob.startswith(magic):
        raise ValueError(f"not a {magic.decode()} container")
    check, payload = blob[len(magic):header], blob[header:]
    if hashlib.blake2b(payload, digest_size=DIGEST_SIZE).digest() != check:
        raise ValueError(f"{magic.decode()} container checksum mismatch")
    return payload


def atomic_write(path: Path, data: bytes, fsync: bool = False) -> None:
    """Replace ``path`` with ``data`` through a sibling temp file,
    creating the directory; ``fsync`` makes the data durable before the
    rename.  Raises OSError, leaving no temp file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=TMP_SUFFIX
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_name)
        raise


class BlobStore:
    """A directory of checksummed ``<key><suffix>`` entries (see the
    module docstring), counted under ``prefix`` and LRU-capped at
    ``max_bytes`` (None = unbounded)."""

    def __init__(
        self,
        root: Union[str, Path],
        magic: bytes,
        suffix: str,
        prefix: str,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = Path(root)
        self.magic = magic
        self.suffix = suffix
        self.prefix = prefix
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evictions = 0
        self.tmp_swept = 0
        self._warned = False
        #: Keys this instance wrote or read — never evicted by it.
        self._live: set = set()
        #: Reference-counted keys protected while in flight.
        self._pins: Dict[str, int] = {}
        self._pin_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def _count(self, name: str, amount: int = 1) -> None:
        _metrics.counter_add(f"{self.prefix}.{name}", amount)

    def _remove(self, name: str) -> bool:
        try:
            (self.root / name).unlink()
        except OSError:
            return False  # raced with a writer, evictor or sweeper
        return True

    def read(self, key: str, decode: Callable[[bytes], Any] = bytes) -> Any:
        """The decoded payload stored under ``key``, or None on a miss.

        A damaged container, or a payload ``decode`` rejects, is
        quarantined.  A hit joins the live set and re-touches the entry.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return self._miss()
        except OSError as error:
            self._failed(error)
            return self._miss()
        try:
            value = decode(unseal(self.magic, blob))
        except Exception:
            self._remove(path.name)
            self.corrupt += 1
            self._count("corrupt")
            return self._miss()
        self.hits += 1
        self._live.add(key)
        self._count("hits")
        self._count("bytes_read", len(blob))
        with suppress(OSError):
            os.utime(path)
        return value

    def _miss(self) -> None:
        self.misses += 1
        self._count("misses")

    def write(self, key: str, payload: bytes) -> None:
        """Store ``payload`` under ``key`` atomically, then enforce the
        cap; a failed write only costs the entry."""
        blob = seal(self.magic, payload)
        try:
            atomic_write(self._path(key), blob)
        except OSError as error:
            self._failed(error)
            return
        self._live.add(key)
        self._count("stores")
        self._count("bytes_written", len(blob))
        self._enforce_cap()

    def _failed(self, error: OSError) -> None:
        """The one I/O failure policy: count, warn once, carry on."""
        self._count("errors")
        if not self._warned:
            self._warned = True
            print(f"warning: {self.prefix} at {self.root}: {error} — "
                  "continuing without it", file=sys.stderr)

    def pin(self, key: str) -> None:
        """Protect a key from eviction; balance with :meth:`unpin`."""
        with self._pin_lock:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: str) -> None:
        """Release one :meth:`pin` reference on a key."""
        with self._pin_lock:
            count = self._pins.get(key, 0) - 1
            if count > 0:
                self._pins[key] = count
            else:
                self._pins.pop(key, None)

    def _enforce_cap(self) -> None:
        """Evict least-recently-used entries outside the live set and
        the pins until the directory is under ``max_bytes``."""
        if self.max_bytes is None:
            return
        entries = self._scan(self.suffix)[0]
        total = sum(size for _, size, _ in entries)
        for _, size, name in sorted(entries, key=lambda found: found[0]):
            if total <= self.max_bytes:
                break
            key = name[:-len(self.suffix)]
            with self._pin_lock:
                if key in self._live or key in self._pins:
                    continue
            if self._remove(name):
                total -= size
                self.evictions += 1
                self._count("evictions")
                self._count("evicted_bytes", size)

    def _scan(self, *suffixes: str) -> List[List[Tuple[float, int, str]]]:
        """One directory pass: ``(mtime, size, name)`` of the files ending
        in each suffix, one list per suffix."""
        found: List[List[Tuple[float, int, str]]] = [[] for _ in suffixes]
        try:
            with os.scandir(self.root) as listing:
                for item in listing:
                    for group, suffix in zip(found, suffixes):
                        if item.name.endswith(suffix):
                            try:
                                stat = item.stat()
                            except OSError:
                                break  # removed under us
                            group.append(
                                (stat.st_mtime, stat.st_size, item.name)
                            )
                            break
        except OSError:
            pass  # no directory yet
        return found

    def sweep_stale_tmp(self, max_age_s: float = TMP_SWEEP_AGE_S) -> int:
        """Remove orphaned ``*.tmp`` files older than ``max_age_s``;
        returns the number removed."""
        cutoff = time.time() - max_age_s
        removed = sum(
            self._remove(name)
            for mtime, _, name in self._scan(TMP_SUFFIX)[0]
            if mtime <= cutoff
        )
        if removed:
            self.tmp_swept += removed
            self._count("tmp_swept", removed)
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        return sum(
            self._remove(name) for _, _, name in self._scan(self.suffix)[0]
        )

    def entries(self) -> int:
        """Number of entries currently on disk."""
        return len(self._scan(self.suffix)[0])

    def stats(self) -> Dict[str, object]:
        """A JSON-ready snapshot of the on-disk state (one directory
        pass)."""
        entries, temps = self._scan(self.suffix, TMP_SUFFIX)
        with self._pin_lock:
            pinned = len(self._pins)
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "tmp_files": len(temps),
            "pinned": pinned,
            "evictions": self.evictions,
        }
