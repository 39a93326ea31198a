"""Edge-path tests for the private hierarchy filter."""

import dataclasses

import numpy as np
import pytest

from repro.sim.config import CacheLevelConfig, gainestown
from repro.sim.hierarchy import filter_private
from repro.trace.access import AccessType, MemoryAccess
from repro.trace.stream import Trace


def _tiny_arch():
    """An architecture with miniature private caches so eviction chains
    trigger within a handful of accesses."""
    return dataclasses.replace(
        gainestown(),
        l1d=CacheLevelConfig(4 * 64, 2, block_bytes=64),   # 4 blocks
        l2=CacheLevelConfig(8 * 64, 2, block_bytes=64),    # 8 blocks
    )


class TestEvictionChains:
    def test_l1_dirty_eviction_lands_in_l2(self):
        # Write 3 blocks mapping to one L1 set (assoc 2): the first gets
        # evicted dirty into L2 — no LLC write yet (L2 absorbs it).
        arch = _tiny_arch()
        accesses = [
            MemoryAccess(0 * 64, AccessType.WRITE),
            MemoryAccess(2 * 64, AccessType.WRITE),
            MemoryAccess(4 * 64, AccessType.WRITE),
        ]
        result = filter_private(Trace.from_accesses(accesses), arch)
        assert result.stream.n_writes == 0

    def test_l2_dirty_spill_reaches_llc(self):
        # Enough dirty blocks to overflow L1 and then L2: the LLC must
        # eventually receive writeback traffic.
        arch = _tiny_arch()
        accesses = [
            MemoryAccess(i * 64, AccessType.WRITE) for i in range(64)
        ] * 2
        result = filter_private(Trace.from_accesses(accesses), arch)
        assert result.stream.n_writes > 0
        # Writebacks are a subset of blocks actually written.
        written = {a.block_address for a in accesses}
        spilled = set(int(b) for b in result.stream.blocks[result.stream.writes])
        assert spilled <= written

    def test_empty_trace(self):
        result = filter_private(Trace.empty("none"), gainestown())
        assert len(result.stream) == 0
        assert result.total_instructions == 0

    def test_thread_beyond_core_count_wraps(self):
        accesses = [
            MemoryAccess(i * 64, AccessType.READ, thread_id=6) for i in range(10)
        ]
        result = filter_private(Trace.from_accesses(accesses), gainestown())
        # Thread 6 on a 4-core machine lands on core 2.
        assert result.per_core[2].accesses == 10


class TestTechniqueRemapCorrectness:
    def test_rotation_preserves_total_traffic(self):
        from repro.techniques.base import Technique
        from repro.techniques.replay import replay_with_technique
        from repro.techniques.wear_leveling import SetRotationLeveling
        from tests.streams import llc_stream

        rng = np.random.default_rng(2)
        stream = llc_stream(
            rng.integers(0, 4096, size=3000), writes=rng.random(3000) < 0.3
        )
        base = replay_with_technique(stream, Technique(), 256 * 1024)
        rotated = replay_with_technique(
            stream, SetRotationLeveling(period=500), 256 * 1024
        )
        # Rotation changes placement, never the amount of traffic.
        assert (
            rotated.counts.read_lookups + rotated.counts.write_accesses
            == base.counts.read_lookups + base.counts.write_accesses
        )
