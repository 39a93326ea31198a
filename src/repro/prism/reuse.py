"""Reuse-distance analysis and miss-ratio curves.

The fixed-area study's central question — "how much capacity does this
workload reward?" — is answered exactly by the LRU stack-distance
histogram: an access with stack distance ``d`` hits in any
fully-associative LRU cache of more than ``d`` blocks.  This module
computes the histogram in one pass (Olken's algorithm: a last-access
table plus a Fenwick tree counting still-most-recent markers, O(N log N))
and derives the miss-ratio curve the capacity planner reads.

This is an *analysis* companion to the cache simulator: the simulator
answers with set conflicts and real associativity, the MRC shows the
idealised capacity knee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import TraceError
from repro.trace.access import BLOCK_BITS
from repro.trace.stream import Trace


class _Fenwick:
    """Binary indexed tree over access timestamps."""

    def __init__(self, n: int) -> None:
        self._tree = [0] * (n + 1)
        self._n = n

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self._n:
            self._tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries [0, index]."""
        index += 1
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return total

    def range_sum(self, low: int, high: int) -> int:
        """Sum of entries [low, high]."""
        if high < low:
            return 0
        return self.prefix_sum(high) - (self.prefix_sum(low - 1) if low else 0)


@dataclass(frozen=True)
class ReuseProfile:
    """Stack-distance histogram of one block-granular access stream.

    ``distances[i]`` counts accesses with stack distance ``i`` (number
    of distinct blocks touched since the previous access to the same
    block); cold (first-touch) accesses are counted separately.
    """

    distances: np.ndarray
    cold_accesses: int
    n_accesses: int

    @property
    def reuse_accesses(self) -> int:
        """Accesses with a finite stack distance."""
        return self.n_accesses - self.cold_accesses

    def miss_ratio(self, capacity_blocks: int) -> float:
        """Idealised (fully-associative LRU) miss ratio at a capacity.

        Misses = cold accesses + reuses at distance >= capacity.
        """
        if capacity_blocks <= 0:
            return 1.0
        if not self.n_accesses:
            return 0.0
        hits = int(self.distances[:capacity_blocks].sum())
        # Compute misses integer-side: ``1.0 - hits/n`` rounds (e.g.
        # ``1.0 - 4/5 = 0.19999…``) and breaks exact-count identities.
        return (self.n_accesses - hits) / self.n_accesses

    def miss_ratio_curve(
        self, capacities_blocks: Sequence[int]
    ) -> List[float]:
        """Miss ratio at each capacity (the MRC)."""
        return [self.miss_ratio(c) for c in capacities_blocks]

    def working_set_blocks(self, coverage: float = 0.9) -> int:
        """Smallest capacity whose hit mass reaches ``coverage`` of the
        achievable (non-cold) hits — a reuse-aware working-set size."""
        if not 0.0 < coverage <= 1.0:
            raise TraceError("coverage must be in (0, 1]")
        total = self.distances.sum()
        if total == 0:
            return 0
        cumulative = np.cumsum(self.distances)
        threshold = coverage * total
        return int(np.searchsorted(cumulative, threshold) + 1)


def reuse_profile(
    trace_or_blocks,
    max_tracked_distance: Optional[int] = None,
) -> ReuseProfile:
    """Compute the stack-distance histogram of a trace or block array.

    ``max_tracked_distance`` caps the histogram length (distances beyond
    it land in the final bucket); default tracks every distance up to
    the stream's unique-block count.
    """
    if isinstance(trace_or_blocks, Trace):
        blocks = np.asarray(trace_or_blocks.block_addresses, dtype=np.uint64)
    else:
        blocks = np.asarray(trace_or_blocks, dtype=np.uint64)
    n = len(blocks)
    if n == 0:
        return ReuseProfile(np.zeros(1, dtype=np.int64), 0, 0)

    unique_count = len(np.unique(blocks))
    limit = max_tracked_distance or unique_count
    limit = max(1, min(limit, unique_count))
    histogram = np.zeros(limit + 1, dtype=np.int64)

    tree = _Fenwick(n)
    last_seen: Dict[int, int] = {}
    cold = 0
    for t in range(n):
        block = int(blocks[t])
        previous = last_seen.get(block)
        if previous is None:
            cold += 1
        else:
            # Distinct blocks since previous touch = markers in (prev, t).
            distance = tree.range_sum(previous + 1, t - 1)
            histogram[min(distance, limit)] += 1
            tree.add(previous, -1)
        tree.add(t, 1)
        last_seen[block] = t

    return ReuseProfile(distances=histogram, cold_accesses=cold, n_accesses=n)


def capacity_knee_blocks(profile: ReuseProfile, drop: float = 0.5) -> Optional[int]:
    """Smallest capacity recovering ``drop`` of the reducible misses.

    Reducible misses are those any finite LRU capacity can remove (cold
    misses are not).  Returns None for a stream with no reuse at all —
    no capacity helps it.  A compact scalar for "where does more LLC
    stop paying" — the quantity the fixed-area study varies technology
    to exploit.
    """
    if profile.reuse_accesses == 0:
        return None
    base = profile.miss_ratio(1)
    floor = profile.miss_ratio(len(profile.distances))
    target = base - drop * (base - floor)
    # Binary search over the histogram's support (MRC is monotone).
    low, high = 1, len(profile.distances)
    while low < high:
        mid = (low + high) // 2
        if profile.miss_ratio(mid) <= target:
            high = mid
        else:
            low = mid + 1
    return low
