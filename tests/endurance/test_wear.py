"""Tests for wear tracking."""

import numpy as np
import pytest

from repro import units
from repro.endurance.wear import replay_with_wear
from tests.streams import llc_stream


class TestReplayWithWear:
    def test_writes_and_fills_both_wear(self):
        # One demand read (fill) + one writeback: both program cells.
        stream = llc_stream([1, 2], [False, True])
        wear = replay_with_wear(stream, 64 * units.KB)
        assert wear.total_writes == 2

    def test_read_hits_do_not_wear(self):
        stream = llc_stream([1, 1, 1, 1], [False, False, False, False])
        wear = replay_with_wear(stream, 64 * units.KB)
        assert wear.total_writes == 1  # only the compulsory fill

    def test_set_attribution(self):
        wear = replay_with_wear(
            llc_stream([0, 0, 0], [True, True, True]), 64 * units.KB,
            associativity=4,
        )
        assert wear.set_writes[0] == 3
        assert wear.set_writes[1:].sum() == 0
        assert wear.hottest_line_writes == 3

    def test_imbalance_metrics(self):
        # All writes into one set of many: maximal imbalance.
        wear = replay_with_wear(
            llc_stream([0] * 10, [True] * 10), 64 * units.KB, associativity=4
        )
        assert wear.imbalance == pytest.approx(wear.n_sets)
        assert wear.coefficient_of_variation > 1.0

    def test_uniform_writes_low_imbalance(self):
        n_sets = (64 * units.KB) // (64 * 4)
        blocks = list(range(n_sets)) * 3
        wear = replay_with_wear(
            llc_stream(blocks, [True] * len(blocks)), 64 * units.KB,
            associativity=4,
        )
        assert wear.imbalance == pytest.approx(1.0)
        assert wear.coefficient_of_variation == pytest.approx(0.0)

    def test_total_writes_conserved(self):
        rng = np.random.default_rng(1)
        blocks = rng.integers(0, 4096, size=2000)
        writes = rng.random(2000) < 0.4
        wear = replay_with_wear(llc_stream(blocks, writes), 128 * units.KB)
        assert wear.set_writes.sum() == wear.total_writes
        assert wear.hottest_line_writes <= wear.max_set_writes
