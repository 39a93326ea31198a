"""Column-oriented memory traces.

A :class:`Trace` stores accesses as parallel numpy arrays — address,
write flag, thread id, instruction gap — which keeps multi-hundred-
thousand-access traces cheap to hold and lets the profiler vectorise
feature extraction.  Scalar access (iteration, indexing) is provided for
tests and small tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.errors import TraceError
from repro.trace.access import BLOCK_BITS, AccessType, MemoryAccess

@dataclass
class Trace:
    """An immutable-by-convention column store of memory accesses.

    Attributes
    ----------
    addresses:
        Byte addresses, ``uint64``.
    writes:
        Write flags, ``bool``.
    thread_ids:
        Issuing thread per access, ``uint16``.
    gaps:
        Non-memory instructions since the previous same-thread access,
        ``uint32``.
    name:
        Optional label (benchmark name).
    """

    addresses: np.ndarray
    writes: np.ndarray
    thread_ids: np.ndarray
    gaps: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        n = len(self.addresses)
        for column, label in (
            (self.writes, "writes"),
            (self.thread_ids, "thread_ids"),
            (self.gaps, "gaps"),
        ):
            if len(column) != n:
                raise TraceError(
                    f"column {label} has {len(column)} rows, expected {n}"
                )
        self.addresses = np.asarray(self.addresses, dtype=np.uint64)
        self.writes = np.asarray(self.writes, dtype=bool)
        self.thread_ids = np.asarray(self.thread_ids, dtype=np.uint16)
        self.gaps = np.asarray(self.gaps, dtype=np.uint32)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_accesses(cls, accesses: Sequence[MemoryAccess], name: str = "") -> "Trace":
        """Build a trace from scalar accesses (test/tooling path)."""
        return cls(
            addresses=np.array([a.address for a in accesses], dtype=np.uint64),
            writes=np.array([a.is_write for a in accesses], dtype=bool),
            thread_ids=np.array([a.thread_id for a in accesses], dtype=np.uint16),
            gaps=np.array([a.gap for a in accesses], dtype=np.uint32),
            name=name,
        )

    @classmethod
    def empty(cls, name: str = "") -> "Trace":
        """An empty trace."""
        return cls(
            addresses=np.empty(0, dtype=np.uint64),
            writes=np.empty(0, dtype=bool),
            thread_ids=np.empty(0, dtype=np.uint16),
            gaps=np.empty(0, dtype=np.uint32),
            name=name,
        )

    @classmethod
    def concatenate(cls, traces: Sequence["Trace"], name: str = "") -> "Trace":
        """Concatenate traces back-to-back."""
        if not traces:
            return cls.empty(name)
        return cls(
            addresses=np.concatenate([t.addresses for t in traces]),
            writes=np.concatenate([t.writes for t in traces]),
            thread_ids=np.concatenate([t.thread_ids for t in traces]),
            gaps=np.concatenate([t.gaps for t in traces]),
            name=name or traces[0].name,
        )

    # -- basic stats -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def n_accesses(self) -> int:
        """Total accesses."""
        return len(self)

    @property
    def n_reads(self) -> int:
        """Total read accesses."""
        return int(len(self) - self.writes.sum())

    @property
    def n_writes(self) -> int:
        """Total write accesses."""
        return int(self.writes.sum())

    @property
    def n_instructions(self) -> int:
        """Total instructions implied by the trace (gaps plus accesses)."""
        return int(self.gaps.sum()) + len(self)

    @property
    def n_threads(self) -> int:
        """Number of distinct issuing threads."""
        if len(self) == 0:
            return 0
        return int(self.thread_ids.max()) + 1

    @property
    def block_addresses(self) -> np.ndarray:
        """Block addresses (uint64) of all accesses."""
        return self.addresses >> np.uint64(BLOCK_BITS)

    # -- views --------------------------------------------------------------

    def reads(self) -> "Trace":
        """The read-only sub-trace."""
        return self._select(~self.writes)

    def writes_only(self) -> "Trace":
        """The write-only sub-trace."""
        return self._select(self.writes)

    def thread(self, thread_id: int) -> "Trace":
        """The per-thread sub-trace."""
        return self._select(self.thread_ids == thread_id)

    def head(self, n: int) -> "Trace":
        """The first ``n`` accesses."""
        return Trace(
            addresses=self.addresses[:n],
            writes=self.writes[:n],
            thread_ids=self.thread_ids[:n],
            gaps=self.gaps[:n],
            name=self.name,
        )

    def _select(self, mask: np.ndarray) -> "Trace":
        return Trace(
            addresses=self.addresses[mask],
            writes=self.writes[mask],
            thread_ids=self.thread_ids[mask],
            gaps=self.gaps[mask],
            name=self.name,
        )

    # -- scalar access ------------------------------------------------------

    def __getitem__(self, index: int) -> MemoryAccess:
        return MemoryAccess(
            address=int(self.addresses[index]),
            access_type=AccessType.WRITE if self.writes[index] else AccessType.READ,
            thread_id=int(self.thread_ids[index]),
            gap=int(self.gaps[index]),
        )

    def __iter__(self) -> Iterator[MemoryAccess]:
        for i in range(len(self)):
            yield self[i]


def interleave_threads(per_thread: Sequence[Trace], name: str = "") -> Trace:
    """Round-robin interleave per-thread traces into one program order.

    Thread ids are reassigned by position in ``per_thread``.  The
    interleaving is the canonical order the simulator's round-robin core
    stepping would produce for balanced threads.
    """
    if not per_thread:
        return Trace.empty(name)
    lengths = [len(t) for t in per_thread]
    total = sum(lengths)
    addresses = np.empty(total, dtype=np.uint64)
    writes = np.empty(total, dtype=bool)
    thread_ids = np.empty(total, dtype=np.uint16)
    gaps = np.empty(total, dtype=np.uint32)

    # Merged-order slot of each per-thread access: round-robin over the
    # threads that still have accesses left.
    slots: List[List[int]] = [[] for _ in per_thread]
    cursors = [0] * len(per_thread)
    remaining = total
    position = 0
    slot = 0
    while remaining:
        tid = position % len(per_thread)
        if cursors[tid] < lengths[tid]:
            slots[tid].append(slot)
            cursors[tid] += 1
            slot += 1
            remaining -= 1
        position += 1

    for tid, trace in enumerate(per_thread):
        index = np.array(slots[tid], dtype=np.int64)
        addresses[index] = trace.addresses
        writes[index] = trace.writes
        thread_ids[index] = tid
        gaps[index] = trace.gaps
    return Trace(addresses, writes, thread_ids, gaps, name=name)
