"""Write-wear tracking over an LLC replay.

Collects per-line and per-set write counts while a stream replays
through a cache geometry, then summarises the *distribution* of wear —
the quantity that determines lifetime under limited endurance, since the
hottest line fails first (paper Section II-A's stuck-at discussion, and
the intra-set write-variation literature the paper cites [20], [38],
[39]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.sim.cache import SetAssocCache
from repro.sim.hierarchy import LLCStream


@dataclass
class WearSummary:
    """Distribution statistics of data-array write wear.

    Set counts are exact.  ``hottest_line_writes`` is counted per block
    address (the replayed id, which a wear leveler remaps), not per
    physical frame: a block re-installed in another way carries its
    count along, and a frame that holds several blocks in turn splits
    its writes among them.
    """

    n_sets: int
    associativity: int
    total_writes: int
    set_writes: np.ndarray  # writes landing in each set
    hottest_line_writes: int  # max writes to a single block address

    @property
    def mean_set_writes(self) -> float:
        """Average writes per set."""
        return float(self.set_writes.mean()) if self.n_sets else 0.0

    @property
    def max_set_writes(self) -> int:
        """Writes into the hottest set."""
        return int(self.set_writes.max()) if self.n_sets else 0

    @property
    def imbalance(self) -> float:
        """Hottest-set writes over the mean (1.0 = perfectly level)."""
        mean = self.mean_set_writes
        return self.max_set_writes / mean if mean > 0 else 0.0

    @property
    def coefficient_of_variation(self) -> float:
        """Std/mean of per-set writes — the wear-variation metric."""
        mean = self.mean_set_writes
        if mean == 0:
            return 0.0
        return float(self.set_writes.std() / mean)


def replay_with_wear(
    stream: LLCStream,
    capacity_bytes: int,
    associativity: int = 16,
    block_bytes: int = 64,
) -> WearSummary:
    """Replay a stream and account data-array writes per set and line.

    Every write access *and* every demand-miss fill programs the data
    array, so both wear the cells — this is the physical accounting,
    independent of the energy model's fill switch.
    """
    cache = SetAssocCache(capacity_bytes, block_bytes, associativity)
    n_sets = cache.n_sets
    set_writes = np.zeros(n_sets, dtype=np.int64)
    line_writes: Dict[int, int] = {}
    total = 0

    blocks = stream.blocks
    writes = stream.writes
    for i in range(len(stream)):
        block = int(blocks[i])
        is_write = bool(writes[i])
        outcome = cache.access(block, is_write)
        wrote = is_write or not outcome.hit  # writeback, or fill
        if wrote:
            total += 1
            set_writes[block % n_sets] += 1
            line_writes[block] = line_writes.get(block, 0) + 1

    hottest = max(line_writes.values()) if line_writes else 0
    return WearSummary(
        n_sets=n_sets,
        associativity=associativity,
        total_writes=total,
        set_writes=set_writes,
        hottest_line_writes=hottest,
    )

