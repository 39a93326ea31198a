"""Technique interface for NVM-friendly LLC management.

The paper's Section I sorts prior NVM-LLC work into three groups:

1. existing architectural techniques adapted for NVMs (e.g. wear
   leveling [20]),
2. novel architectural techniques (e.g. cache bypassing [14,16,17,21]),
3. device-level techniques (e.g. relaxed/terminated writes [15,18,19,22,23]).

A :class:`Technique` *declares* what it does to the LLC — a leveling
period, a compaction tag budget, the line sizes of a stream, whether it
bypasses writes, and device-level energy and latency factors — and the
technique replay (:mod:`repro.techniques.replay`) reads those
declarations, never the class; one concrete class per group lives in
this subpackage.  The defaults declare nothing, so a bare
``Technique()`` reproduces the baseline LLC exactly.  The two
per-access hooks, :meth:`observe_read` and :meth:`should_bypass_write`,
are the write-bypass decision; both replay paths run them in stream
order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class Technique:
    """Base class: a baseline LLC with no management technique."""

    #: Human-readable identifier used in evaluation tables.
    name = "baseline"

    #: Set-rotation wear leveling: the block-to-set mapping moves by one
    #: set every ``leveling_period`` data-array writes, so a block maps
    #: to set ``(block + writes_seen // leveling_period) % n_sets``
    #: (None: it never moves).
    leveling_period: Optional[int] = None

    #: Data-array writes counted toward the leveling rotation so far; a
    #: replay under a ``leveling_period`` advances it.
    writes_seen = 0

    #: Compacted ways: tags per set as a multiple of the associativity
    #: (None: the plain set-associative cache).
    tag_factor: Optional[int] = None

    #: Whether :meth:`should_bypass_write` can answer True.  Its answers
    #: may depend only on the blocks :meth:`observe_read` has seen (it
    #: sees every read, hit or miss), so the replay decides every
    #: bypass in one pass over the stream.
    bypasses_writes = False

    def should_bypass_write(self, block: int) -> bool:
        """Whether a writeback should skip the LLC and go to DRAM."""
        return False

    def observe_read(self, block: int) -> None:
        """Called on every demand read reaching the LLC (reuse hints)."""

    def write_energy_factor(self) -> float:
        """Multiplier on per-write dynamic energy (device techniques)."""
        return 1.0

    def write_latency_factor(self) -> float:
        """Multiplier on per-write latency (device techniques)."""
        return 1.0

    def line_sizes(self, blocks: np.ndarray, block_bytes: int) -> np.ndarray:
        """Bytes programmed when each block's line is written, as int64.

        Compression techniques return compressed sizes; the default
        writes the full block.  The replay sums these over the data
        writes into
        :attr:`~repro.techniques.replay.TechniqueOutcome.write_bytes`,
        which scales write energy and per-cell wear.
        """
        return np.full(len(blocks), block_bytes, dtype=np.int64)
