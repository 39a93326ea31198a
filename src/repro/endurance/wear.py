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

import numpy as np

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


def tally_wear(
    set_idx: np.ndarray, lines: np.ndarray, n_sets: int, associativity: int
) -> WearSummary:
    """The wear of a replay's data-array writes, one entry per write:
    the set it lands in and the line it programs."""
    hottest = 0
    if len(lines):
        hottest = int(np.unique(lines, return_counts=True)[1].max())
    return WearSummary(
        n_sets=n_sets,
        associativity=associativity,
        total_writes=len(lines),
        set_writes=np.bincount(set_idx, minlength=n_sets).astype(np.int64),
        hottest_line_writes=hottest,
    )


def replay_with_wear(
    stream: LLCStream,
    capacity_bytes: int,
    associativity: int = 16,
    block_bytes: int = 64,
) -> WearSummary:
    """Replay a stream and account data-array writes per set and line.

    Every write access *and* every demand-miss fill programs the data
    array, so both wear the cells — this is the physical accounting,
    independent of the energy model's fill switch.  The replay is the
    vector LRU rounds' hit mask (:func:`repro.sim.engine.lru_rounds`):
    the written lines are ``writes | ~hit``.
    """
    from repro.sim.engine import check_geometry, lru_rounds

    n_sets = check_geometry(capacity_bytes, block_bytes, associativity)
    blocks = np.ascontiguousarray(stream.blocks, dtype=np.uint64)
    writes = np.ascontiguousarray(stream.writes, dtype=bool)
    set_idx = (blocks % np.uint64(n_sets)).astype(np.int64)
    hit, _, _ = lru_rounds(set_idx, blocks, writes, n_sets, associativity)
    wrote = writes | ~hit  # writeback, or fill
    return tally_wear(set_idx[wrote], blocks[wrote], n_sets, associativity)
