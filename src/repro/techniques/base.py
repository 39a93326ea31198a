"""Technique interface for NVM-friendly LLC management.

The paper's Section I sorts prior NVM-LLC work into three groups:

1. existing architectural techniques adapted for NVMs (e.g. wear
   leveling [20]),
2. novel architectural techniques (e.g. cache bypassing [14,16,17,21]),
3. device-level techniques (e.g. relaxed/terminated writes [15,18,19,22,23]).

:class:`Technique` is the hook interface the technique replay engine
(:mod:`repro.techniques.replay`) drives; one concrete class per group
lives in this subpackage.  The default hooks are no-ops, so a bare
``Technique()`` reproduces the baseline LLC exactly.

A technique *declares* what the vector replay needs — a leveling
period, a compaction tag budget, vectorized line sizes, whether it
bypasses writes — and the replay reads those declarations, never the
class.  The per-access hooks are the same behaviour, one access at a
time, for :func:`~repro.techniques.replay.replay_with_technique_reference`
(and, for bypassing, the production replay's pre-pass).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class Technique:
    """Base class: a baseline LLC with no management technique."""

    #: Human-readable identifier used in evaluation tables.
    name = "baseline"

    #: Set-rotation wear leveling: the block-to-set mapping moves by one
    #: set every ``leveling_period`` data-array writes (None: it never
    #: moves).  :meth:`map_set` and :meth:`observe_write` implement it.
    leveling_period: Optional[int] = None

    #: Data-array writes counted toward the leveling rotation so far.
    writes_seen = 0

    #: Compacted ways: tags per set as a multiple of the associativity
    #: (None: the plain set-associative cache).
    tag_factor: Optional[int] = None

    #: Whether :meth:`should_bypass_write` can answer True.  Its answers
    #: may depend only on the blocks :meth:`observe_read` has seen (it
    #: sees every read, hit or miss), so the replay decides every
    #: bypass in one pass over the stream.
    bypasses_writes = False

    def map_set(self, block: int, n_sets: int) -> int:
        """Physical set index for a block (wear leveling remaps here)."""
        if self.leveling_period is None:
            return block % n_sets
        return (block + self.writes_seen // self.leveling_period) % n_sets

    def should_bypass_write(self, block: int) -> bool:
        """Whether a writeback should skip the LLC and go to DRAM."""
        return False

    def observe_read(self, block: int) -> None:
        """Called on every demand read reaching the LLC (reuse hints)."""

    def observe_write(self, block: int) -> None:
        """Called on every data-array write that actually happens."""
        if self.leveling_period is not None:
            self.writes_seen += 1

    def write_energy_factor(self) -> float:
        """Multiplier on per-write dynamic energy (device techniques)."""
        return 1.0

    def write_latency_factor(self) -> float:
        """Multiplier on per-write latency (device techniques)."""
        return 1.0

    def line_size_bytes(self, block: int, block_bytes: int) -> int:
        """Bytes actually written when this block's line is programmed.

        Compression techniques return the line's compressed size; the
        default writes the full block.  The replay engine sums these
        into :attr:`~repro.techniques.replay.TechniqueOutcome.write_bytes`,
        which scales write energy and per-cell wear.
        """
        return block_bytes

    def line_sizes(self, blocks: np.ndarray, block_bytes: int) -> np.ndarray:
        """:meth:`line_size_bytes` of every block of a stream, as int64."""
        return np.full(len(blocks), block_bytes, dtype=np.int64)

    def make_cache(self, capacity_bytes: int, block_bytes: int, associativity: int):
        """The cache the replay engine should drive, or None.

        Capacity-changing techniques (compacted-way compression) return
        their own cache variant here; the default None means the plain
        :class:`~repro.sim.cache.SetAssocCache`, which keeps every
        pre-existing technique byte-identical to the baseline engine.
        """
        return None
