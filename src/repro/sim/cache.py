"""Set-associative write-back cache with LRU replacement.

The workhorse of the hierarchy simulation.  Implementation notes:

- Each set is a plain ``dict`` mapping tag -> dirty flag; Python dicts
  preserve insertion order, so LRU is maintained by deleting and
  re-inserting on touch (cheaper than ``OrderedDict.move_to_end`` for
  the small dicts cache sets are).
- Addresses are *block* addresses (byte address >> 6); the cache never
  sees offsets.

This class defines the replacement semantics the production replay
loops must match bit-for-bit (see :mod:`repro.sim.engine`): set index
is ``block % n_sets``; the LRU victim is the least-recently *touched*
line (empty ways fill before any eviction); a hit refreshes recency and
keeps the dirty flag sticky (``dirty or is_write``); a miss installs the
block with the access's write flag.  The vector LLC rounds reproduce exactly
this with per-way age counters instead of dict order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one cache access.

    Attributes
    ----------
    hit:
        Whether the block was present.
    dirty_victim:
        Block address of a dirty line evicted to make room, or None.
    """

    hit: bool
    dirty_victim: Optional[int]


@dataclass
class CacheStats:
    """Hit/miss/writeback counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssocCache:
    """A set-associative, write-back, write-allocate cache.

    Parameters
    ----------
    capacity_bytes / block_bytes / associativity:
        Geometry; capacity must be a whole number of sets.
    """

    def __init__(
        self, capacity_bytes: int, block_bytes: int, associativity: int
    ) -> None:
        if capacity_bytes % (block_bytes * associativity):
            raise ConfigurationError("capacity must be a whole number of sets")
        self.block_bytes = block_bytes
        self.associativity = associativity
        self.n_sets = capacity_bytes // (block_bytes * associativity)
        if self.n_sets <= 0:
            raise ConfigurationError("cache must have at least one set")
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.n_sets)]
        self.stats = CacheStats()

    @property
    def capacity_bytes(self) -> int:
        """Total data capacity."""
        return self.n_sets * self.associativity * self.block_bytes

    def access(self, block: int, is_write: bool) -> "AccessOutcome":
        """Access one block; report hit status and any dirty eviction.

        On a hit the line is refreshed to MRU (and marked dirty on a
        write).  On a miss the line is allocated; if the set is full the
        LRU line is evicted and, when dirty, its block address is
        reported so the caller can write it back to the next level.
        """
        index = block % self.n_sets
        lines = self._sets[index]
        dirty = lines.get(block)
        if dirty is not None:
            # Hit: refresh LRU position.
            del lines[block]
            lines[block] = dirty or is_write
            self.stats.hits += 1
            return AccessOutcome(hit=True, dirty_victim=None)
        self.stats.misses += 1
        victim_block: Optional[int] = None
        if len(lines) >= self.associativity:
            victim_tag = next(iter(lines))
            victim_dirty = lines.pop(victim_tag)
            if victim_dirty:
                self.stats.writebacks += 1
                victim_block = victim_tag
        lines[block] = is_write
        return AccessOutcome(hit=False, dirty_victim=victim_block)

    def fill(self, block: int, dirty: bool = False) -> Optional[int]:
        """Insert a block without counting a demand access (prefetch or
        writeback-allocate path); returns the evicted dirty block."""
        index = block % self.n_sets
        lines = self._sets[index]
        if block in lines:
            was_dirty = lines.pop(block)
            lines[block] = was_dirty or dirty
            return None
        victim_block: Optional[int] = None
        if len(lines) >= self.associativity:
            victim_tag = next(iter(lines))
            victim_dirty = lines.pop(victim_tag)
            if victim_dirty:
                self.stats.writebacks += 1
                victim_block = victim_tag
        lines[block] = dirty
        return victim_block

    def contains(self, block: int) -> bool:
        """Presence check without LRU side effects."""
        return block in self._sets[block % self.n_sets]

    def invalidate(self, block: int) -> bool:
        """Drop a block (coherence); returns True if it was dirty.

        The dirty data is assumed to be forwarded to the requester /
        next level by the caller.
        """
        index = block % self.n_sets
        lines = self._sets[index]
        dirty = lines.pop(block, None)
        if dirty is None:
            return False
        self.stats.invalidations += 1
        return dirty

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(lines) for lines in self._sets)
