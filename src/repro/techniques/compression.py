"""Compressed NVM LLC: compacted ways over per-line size classes.

The L2C2 follow-ups to the source paper (Escuin et al.,
arXiv:2204.09504 and the forecasting companion arXiv:2204.03512)
compress last-level cache lines so several share the physical ways of a
set — *compacted ways* — which grows effective capacity, and program
only the compressed bytes on every write, which cuts both write energy
and per-cell wear.  This module models that design on top of the
technique replay engine:

- :class:`CompactedWayCache` — a set-associative LRU cache whose sets
  hold lines by **byte budget** (``associativity * block_bytes``, the
  physical data array) up to a **tag budget**
  (``tag_factor * associativity``, the extra tags the compacted design
  provisions).  With every line at full size it degenerates to exactly
  the baseline :class:`~repro.sim.cache.SetAssocCache` semantics.
- :class:`CompressedLLC` — the :class:`~repro.techniques.base.Technique`
  wiring: per-line compressed sizes from the workload's
  :class:`~repro.workloads.profiles.CompressibilityProfile` (or any
  size function), write energy scaled to bytes actually written, and
  optional composition with early write termination (fewer-bit writes
  and redundant-bit termination multiply) and set-rotation leveling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CompressionError
from repro.techniques.base import Technique
from repro.techniques.early_write_termination import EarlyWriteTermination

#: Default tag provisioning: twice the physical ways, L2C2's choice.
DEFAULT_TAG_FACTOR = 2

#: The physical bound any compressed-size model must respect: at least
#: one eighth of the line (ratio <= 8, the smallest SIZE_CLASSES entry).
MAX_RATIO = 8.0


def _check_tag_factor(tag_factor: int) -> int:
    if tag_factor < 1:
        raise CompressionError(
            f"tag factor must be at least 1, got {tag_factor}"
        )
    return tag_factor


@dataclass(frozen=True)
class CompactedOutcome:
    """Result of one compacted-cache access.

    Unlike the baseline cache, one miss can evict *several* dirty lines
    (a full-size fill may displace many compressed residents), so the
    victims come back as a tuple.
    """

    hit: bool
    dirty_victims: Tuple[int, ...]


class CompactedWayCache:
    """Byte-budget set-associative LRU cache (compacted ways).

    Each set stores lines in LRU order; a resident line occupies its
    compressed size.  A miss inserts the new line and evicts LRU lines
    until both budgets hold: resident bytes within the physical array
    (``associativity * block_bytes``) and resident tags within the
    provisioned tag array (``tag_factor * associativity``).

    Replacement semantics deliberately mirror
    :class:`~repro.sim.cache.SetAssocCache`: hits refresh recency and
    keep the dirty bit sticky; misses install with the access's write
    flag.  When every line is full-size the byte budget admits exactly
    ``associativity`` lines and the eviction loop removes exactly one
    LRU victim per conflict miss — bit-identical to the baseline, which
    is what makes compression ratio 1.0 a no-op.
    """

    #: Replay engines pass per-line sizes to :meth:`access`.
    SIZE_AWARE = True

    def __init__(
        self,
        capacity_bytes: int,
        block_bytes: int,
        associativity: int,
        tag_factor: int = DEFAULT_TAG_FACTOR,
    ) -> None:
        if capacity_bytes % (block_bytes * associativity):
            raise CompressionError("capacity must be a whole number of sets")
        self.block_bytes = block_bytes
        self.associativity = associativity
        self.n_sets = capacity_bytes // (block_bytes * associativity)
        if self.n_sets <= 0:
            raise CompressionError("cache must have at least one set")
        self.tag_factor = _check_tag_factor(tag_factor)
        self.byte_budget = associativity * block_bytes
        self.tag_budget = self.tag_factor * associativity
        # Per set: insertion-ordered dict, tag -> [size_bytes, dirty].
        self._sets: List[Dict[int, List]] = [dict() for _ in range(self.n_sets)]
        self._occupied: List[int] = [0] * self.n_sets
        #: Running sum of resident-line counts, sampled once per access
        #: (divide by accesses for the measured mean effective lines).
        self.resident_line_samples = 0
        self.accesses = 0
        self.peak_lines = 0

    @property
    def capacity_bytes(self) -> int:
        """Physical data-array capacity."""
        return self.n_sets * self.byte_budget

    def _check_size(self, size: int) -> int:
        if not 0 < size <= self.block_bytes:
            raise CompressionError(
                f"compressed size {size} outside (0, {self.block_bytes}]"
            )
        return size

    def access(self, block: int, is_write: bool, size: int) -> CompactedOutcome:
        """Access one block whose compressed size is ``size`` bytes."""
        size = self._check_size(int(size))
        index = block % self.n_sets
        lines = self._sets[index]
        self.accesses += 1
        entry = lines.get(block)
        if entry is not None:
            # Hit: refresh LRU position, dirty stays sticky.  The
            # stored size is kept — a line's compressibility is a
            # property of its data, stable across accesses.
            del lines[block]
            entry[1] = entry[1] or is_write
            lines[block] = entry
            self.resident_line_samples += len(lines)
            return CompactedOutcome(hit=True, dirty_victims=())
        victims = []
        while lines and (
            self._occupied[index] + size > self.byte_budget
            or len(lines) >= self.tag_budget
        ):
            victim_tag = next(iter(lines))
            victim_size, victim_dirty = lines.pop(victim_tag)
            self._occupied[index] -= victim_size
            if victim_dirty:
                victims.append(victim_tag)
        lines[block] = [size, is_write]
        self._occupied[index] += size
        self.resident_line_samples += len(lines)
        self.peak_lines = max(self.peak_lines, len(lines))
        return CompactedOutcome(hit=False, dirty_victims=tuple(victims))

    @property
    def mean_resident_lines(self) -> float:
        """Measured mean lines resident in the accessed set."""
        if self.accesses == 0:
            return 0.0
        return self.resident_line_samples / self.accesses


class CompressedLLC(Technique):
    """Compacted-way compressed LLC technique.

    Parameters
    ----------
    size_fn:
        Block address -> compressed size in bytes, in
        ``(0, block_bytes]``.  Use :meth:`for_workload` to build one
        from the workload's declared compressibility distribution, or
        :meth:`uniform` for a constant size (tests; ``uniform(64)`` is
        the ratio-1.0 baseline).
    tag_factor:
        Compacted tag provisioning (default 2x: L2C2's choice).
    redundant_fraction:
        When given, compose with early write termination at this
        redundant-bit fraction: the per-byte write energy drops by the
        EWT factor *on top of* the fewer bytes written.
    leveling_period:
        When given, rotate the set mapping every ``leveling_period``
        data-array writes (the wear-leveling interaction; same scheme as
        :class:`~repro.techniques.wear_leveling.SetRotationLeveling`).
    """

    name = "compression"

    def __init__(
        self,
        size_fn: Callable[[int], int],
        tag_factor: int = DEFAULT_TAG_FACTOR,
        redundant_fraction: Optional[float] = None,
        leveling_period: Optional[int] = None,
    ) -> None:
        self._size_fn = size_fn
        self.tag_factor = _check_tag_factor(tag_factor)
        self._ewt = (
            EarlyWriteTermination(redundant_fraction)
            if redundant_fraction is not None
            else None
        )
        if leveling_period is not None and leveling_period <= 0:
            raise CompressionError("leveling period must be positive")
        self.leveling_period = leveling_period
        self._writes_seen = 0
        self._offset = 0

    # -- construction ----------------------------------------------------

    @classmethod
    def for_workload(
        cls,
        benchmark: str,
        seed: Optional[int] = None,
        **kwargs,
    ) -> "CompressedLLC":
        """Build from the workload's declared compressibility model."""
        import numpy as np

        from repro.workloads.generators import (
            DEFAULT_SEED,
            line_compressed_sizes,
        )

        seed = DEFAULT_SEED if seed is None else seed
        cache: Dict[int, int] = {}

        def size_fn(block: int) -> int:
            size = cache.get(block)
            if size is None:
                size = int(
                    line_compressed_sizes(
                        np.array([block], dtype=np.uint64), benchmark, seed
                    )[0]
                )
                cache[block] = size
            return size

        return cls(size_fn, **kwargs)

    @classmethod
    def uniform(cls, size_bytes: int, **kwargs) -> "CompressedLLC":
        """Every line compresses to the same size (tests/ablations)."""
        return cls(lambda block: size_bytes, **kwargs)

    # -- Technique hooks -------------------------------------------------

    def line_size_bytes(self, block: int, block_bytes: int) -> int:
        size = int(self._size_fn(block))
        if not 0 < size <= block_bytes:
            raise CompressionError(
                f"size_fn returned {size} for block {block}, "
                f"outside (0, {block_bytes}]"
            )
        return size

    def make_cache(
        self, capacity_bytes: int, block_bytes: int, associativity: int
    ) -> CompactedWayCache:
        return CompactedWayCache(
            capacity_bytes, block_bytes, associativity, self.tag_factor
        )

    def map_set(self, block: int, n_sets: int) -> int:
        return (block + self._offset) % n_sets

    def observe_write(self, block: int) -> None:
        if self.leveling_period is None:
            return
        self._writes_seen += 1
        if self._writes_seen % self.leveling_period == 0:
            self._offset += 1

    def write_energy_factor(self) -> float:
        return self._ewt.write_energy_factor() if self._ewt else 1.0

    def write_latency_factor(self) -> float:
        return self._ewt.write_latency_factor() if self._ewt else 1.0
