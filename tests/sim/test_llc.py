"""Tests for the shared LLC replay and MLP estimation."""

import numpy as np
import pytest

from repro import units
from repro.sim.llc import LLCCounts, estimate_mlp, simulate_llc
from tests.streams import llc_stream


class TestLLCReplay:
    def test_cold_then_hot(self):
        counts = simulate_llc(llc_stream([1, 2, 3, 1, 2, 3]), 64 * units.KB)
        assert counts.read_misses == 3
        assert counts.read_hits == 3

    def test_capacity_knee(self):
        # Cyclic sweep over 2x capacity: zero hits; at 4x capacity LLC the
        # same stream hits on the second pass.
        blocks = list(range(64)) * 3
        thrash = simulate_llc(llc_stream(blocks), capacity_bytes=32 * 64,
                              associativity=4, block_bytes=64)
        roomy = simulate_llc(llc_stream(blocks), capacity_bytes=128 * 64,
                             associativity=4, block_bytes=64)
        assert thrash.read_hits == 0
        assert roomy.read_hits == 128

    def test_writeback_writes_counted(self):
        counts = simulate_llc(
            llc_stream([1, 2], writes=[True, True]), 64 * units.KB
        )
        assert counts.write_accesses == 2
        assert counts.write_misses == 2
        assert counts.read_lookups == 0

    def test_fills_property(self):
        counts = simulate_llc(
            llc_stream([1, 2, 3], writes=[False, False, True]), 64 * units.KB
        )
        assert counts.fills == counts.read_misses + counts.write_misses == 3

    def test_data_writes_includes_fills(self):
        counts = simulate_llc(
            llc_stream([1, 2, 3], writes=[False, False, True]), 64 * units.KB
        )
        assert counts.data_writes == counts.write_accesses + counts.read_misses

    def test_dirty_evictions_reach_dram(self):
        # Fill a tiny LLC with dirty lines, then push them out.
        blocks = list(range(100))
        counts = simulate_llc(
            llc_stream(blocks, writes=[True] * 100),
            capacity_bytes=16 * 64,
            associativity=4,
        )
        assert counts.dirty_evictions > 0
        assert counts.dram_writes == counts.dirty_evictions

    def test_dram_reads_are_demand_misses_only(self):
        counts = simulate_llc(
            llc_stream([1, 2, 3], writes=[False, True, True]), 64 * units.KB
        )
        assert counts.dram_reads == 1

    def test_per_core_split(self):
        counts = simulate_llc(
            llc_stream([1, 2, 3, 4], cores=[0, 1, 0, 1]), 64 * units.KB,
            n_cores=2,
        )
        assert counts.per_core_read_misses == [2, 2]

    def test_mpki(self):
        counts = simulate_llc(llc_stream([1, 2, 3]), 64 * units.KB)
        assert counts.mpki(3000) == pytest.approx(1.0)

    def test_miss_rate(self):
        counts = simulate_llc(llc_stream([1, 1, 1, 2]), 64 * units.KB)
        assert counts.miss_rate == pytest.approx(0.5)


class TestMLPEstimation:
    def test_isolated_misses_mlp_one(self):
        positions = np.array([0, 1000, 2000, 3000], dtype=np.uint64)
        assert estimate_mlp(positions, window=128, ceiling=6.0) == 1.0

    def test_clustered_misses_overlap(self):
        # Four misses within one ROB window: MLP 4.
        positions = np.array([0, 10, 20, 30], dtype=np.uint64)
        assert estimate_mlp(positions, window=128, ceiling=6.0) == 4.0

    def test_ceiling_respected(self):
        positions = np.arange(0, 100, 5, dtype=np.uint64)
        assert estimate_mlp(positions, window=128, ceiling=4.0) == 4.0

    def test_mixed_clusters(self):
        positions = np.array([0, 10, 5000, 5010], dtype=np.uint64)
        assert estimate_mlp(positions, window=128, ceiling=6.0) == 2.0

    def test_empty_and_single(self):
        assert estimate_mlp(np.array([], dtype=np.uint64), 128, 6.0) == 1.0
        assert estimate_mlp(np.array([5], dtype=np.uint64), 128, 6.0) == 1.0
