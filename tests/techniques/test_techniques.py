"""Tests for the LLC management techniques."""

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.techniques.base import Technique
from repro.techniques.early_write_termination import EarlyWriteTermination
from repro.techniques.replay import replay_with_technique
from repro.techniques.wear_leveling import SetRotationLeveling
from repro.techniques.write_bypass import ReuseWriteBypass
from tests.streams import llc_stream


class TestBaselineTechnique:
    def test_noop_hooks(self):
        technique = Technique()
        assert technique.leveling_period is None
        assert technique.tag_factor is None
        assert not technique.should_bypass_write(123)
        assert technique.write_energy_factor() == 1.0
        assert technique.write_latency_factor() == 1.0
        blocks = np.array([123, 2**64 - 1], dtype=np.uint64)
        assert technique.line_sizes(blocks, 64).tolist() == [64, 64]


class TestSetRotationLeveling:
    def test_rotates_after_period(self):
        # 64 sets: three writes to block 0 rotate the mapping by one
        # set, so the fourth lands in set 1.
        leveler = SetRotationLeveling(period=3)
        stream = llc_stream([0] * 4, [True] * 4)
        outcome = replay_with_technique(stream, leveler, 64 * units.KB)
        assert leveler.rotated
        assert outcome.wear.set_writes[:3].tolist() == [3, 1, 0]

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            SetRotationLeveling(period=0)

    def test_spreads_hot_set_wear(self):
        # A single write-hot block, long stream, aggressive rotation.
        stream = llc_stream([7] * 3000, [True] * 3000)
        base = replay_with_technique(stream, Technique(), 64 * units.KB)
        leveled = replay_with_technique(
            stream, SetRotationLeveling(period=100), 64 * units.KB
        )
        assert leveled.wear.hottest_line_writes < base.wear.hottest_line_writes
        assert (leveled.wear.set_writes > 0).sum() > 1
        assert (base.wear.set_writes > 0).sum() == 1


class TestReuseWriteBypass:
    def test_bypasses_unread_blocks(self):
        stream = llc_stream([1, 2, 3], [True, True, True])
        outcome = replay_with_technique(
            stream, ReuseWriteBypass(filter_blocks=16), 64 * units.KB
        )
        assert outcome.bypassed_writes == 3
        assert outcome.counts.write_accesses == 0
        # Bypassed writebacks go to DRAM.
        assert outcome.counts.dirty_evictions == 3

    def test_keeps_recently_read_blocks(self):
        stream = llc_stream([1, 1], [False, True])
        outcome = replay_with_technique(
            stream, ReuseWriteBypass(filter_blocks=16), 64 * units.KB
        )
        assert outcome.bypassed_writes == 0
        assert outcome.counts.write_accesses == 1

    def test_filter_eviction(self):
        bypass = ReuseWriteBypass(filter_blocks=2)
        bypass.observe_read(1)
        bypass.observe_read(2)
        bypass.observe_read(3)  # evicts 1
        assert bypass.should_bypass_write(1)
        assert not bypass.should_bypass_write(3)

    def test_rejects_empty_filter(self):
        with pytest.raises(ConfigurationError):
            ReuseWriteBypass(filter_blocks=0)


class TestEarlyWriteTermination:
    def test_energy_factor_scales_with_redundancy(self):
        none = EarlyWriteTermination(redundant_fraction=0.0)
        typical = EarlyWriteTermination()
        total = EarlyWriteTermination(redundant_fraction=1.0)
        assert none.write_energy_factor() == pytest.approx(1.0)
        assert 0.1 < typical.write_energy_factor() < 0.4
        assert total.write_energy_factor() < typical.write_energy_factor()

    def test_latency_factor_modest(self):
        technique = EarlyWriteTermination()
        assert 0.8 < technique.write_latency_factor() <= 1.0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            EarlyWriteTermination(redundant_fraction=1.5)
