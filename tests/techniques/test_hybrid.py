"""Tests for the way-partitioned hybrid SRAM/NVM LLC."""

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.nvsim.published import published_model
from repro.techniques.hybrid import HybridLLC, evaluate_hybrid
from tests.streams import llc_stream


class TestHybridLLC:
    def test_partition_validated(self):
        with pytest.raises(ConfigurationError):
            HybridLLC(2 * units.MB, 64, 16, sram_ways=0)
        with pytest.raises(ConfigurationError):
            HybridLLC(2 * units.MB, 64, 16, sram_ways=16)

    def test_writebacks_land_in_sram(self):
        hybrid = HybridLLC(64 * units.KB, 64, 16, sram_ways=4)
        hybrid.access(1, True)
        hybrid.access(2, True)
        counts = hybrid.counts
        assert counts.sram_writes == 2
        assert counts.nvm_writes == 0

    def test_fills_land_in_nvm(self):
        hybrid = HybridLLC(64 * units.KB, 64, 16, sram_ways=4)
        hybrid.access(1, False)
        counts = hybrid.counts
        assert counts.read_misses == 1
        assert counts.nvm_writes == 1
        assert counts.sram_writes == 0

    def test_write_to_nvm_resident_migrates(self):
        hybrid = HybridLLC(64 * units.KB, 64, 16, sram_ways=4)
        hybrid.access(1, False)  # fill into NVM
        hybrid.access(1, True)   # write: migrate to SRAM
        counts = hybrid.counts
        assert counts.migrations == 1
        assert counts.sram_writes == 1

    def test_hits_found_in_either_region(self):
        hybrid = HybridLLC(64 * units.KB, 64, 16, sram_ways=4)
        hybrid.access(1, False)  # NVM resident
        hybrid.access(2, True)   # SRAM resident
        assert hybrid.access(1, False) is None  # returns None, counts hit
        hybrid.access(2, False)
        assert hybrid.counts.read_hits == 2

    def test_sram_region_capacity_respected(self):
        # 1 set x 4 SRAM ways: the 5th distinct writeback evicts.
        hybrid = HybridLLC(16 * 64, 64, 16, sram_ways=4)
        for block in range(5):
            hybrid.access(block, True)
        assert hybrid.counts.dirty_evictions == 1


class TestEvaluateHybrid:
    @pytest.fixture(scope="class")
    def stream(self):
        rng = np.random.default_rng(8)
        blocks = rng.integers(0, 1 << 15, size=20_000)
        writes = rng.random(20_000) < 0.4
        return llc_stream(blocks, writes)

    def test_reduces_nvm_writes(self, stream):
        evaluation = evaluate_hybrid(
            stream, published_model("Kang_P"), sram_ways=2
        )
        assert evaluation.nvm_write_reduction > 0.1
        assert evaluation.counts.sram_writes > 0

    def test_write_energy_reduction_for_pcram(self, stream):
        # SRAM writes at 0.537 nJ vs Kang's 375 nJ: diverted writes are
        # nearly free.
        evaluation = evaluate_hybrid(
            stream, published_model("Kang_P"), sram_ways=2
        )
        assert evaluation.write_energy_reduction > 0.1
        assert evaluation.write_energy_reduction == pytest.approx(
            evaluation.nvm_write_reduction, abs=0.02
        )

    def test_leakage_cost(self, stream):
        # SRAM ways leak ~3.4 W prorated: hybrid leaks more than the
        # pure low-leakage NVM.
        evaluation = evaluate_hybrid(
            stream, published_model("Kang_P"), sram_ways=2
        )
        assert evaluation.leakage_increase > 1.0

    def test_more_sram_ways_more_diversion(self, stream):
        small = evaluate_hybrid(stream, published_model("Kang_P"), sram_ways=1)
        large = evaluate_hybrid(stream, published_model("Kang_P"), sram_ways=4)
        assert large.nvm_write_reduction >= small.nvm_write_reduction
