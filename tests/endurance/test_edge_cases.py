"""Endurance-model edge cases the compression work leans on.

Zero-write windows must forecast infinite (not NaN) lifetimes, a
single hot line must show the full unleveled/leveled gap, and set
rotation must spread wear without changing the byte accounting of
compressed lines (sizes are keyed to the *true* block address, not the
rotated placement).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cells.base import CellClass
from repro.endurance.lifetime import estimate_lifetime
from repro.endurance.wear import WearSummary
from repro.errors import SimulationError
from repro.techniques.base import Technique
from repro.techniques.compression import CompressedLLC
from repro.techniques.replay import replay_with_technique
from tests.streams import llc_stream

CAPACITY = 4 * 4 * 64  # 4 sets x 4 ways
ASSOC = 4


def _replay(pairs, technique):
    stream = llc_stream([p[0] for p in pairs], [p[1] for p in pairs])
    return replay_with_technique(stream, technique, CAPACITY, ASSOC, 64, n_cores=1)


class TestZeroWriteWindow:
    def test_empty_stream_forecasts_infinite_lifetime(self):
        outcome = _replay([], Technique())
        assert outcome.wear.total_writes == 0
        assert outcome.write_bytes == 0
        assert outcome.write_bytes_fraction == 1.0  # neutral, not 0/0
        estimate = estimate_lifetime(
            "Kang_P", CellClass.PCRAM, outcome.wear, window_s=1e-3
        )
        assert estimate.unleveled_years == math.inf
        assert estimate.leveled_years == math.inf

    def test_zero_wear_summary_is_infinite_for_limited_cells(self):
        wear = WearSummary(
            n_sets=4,
            associativity=ASSOC,
            total_writes=0,
            set_writes=np.zeros(4, dtype=np.int64),
            hottest_line_writes=0,
        )
        estimate = estimate_lifetime("Zhang_R", CellClass.RRAM, wear, 1.0)
        assert estimate.unleveled_years == math.inf
        assert estimate.total_write_rate == 0.0

    def test_compressed_replay_of_empty_stream_is_consistent(self):
        outcome = _replay([], CompressedLLC.uniform(16))
        assert outcome.compressed_writes == 0
        assert outcome.uncompressed_writes == 0
        assert outcome.effective_capacity_bytes == 0.0


class TestSingleHotLine:
    def test_wear_concentrates_on_one_frame(self):
        pairs = [(7, True)] * 500
        outcome = _replay(pairs, Technique())
        assert outcome.wear.hottest_line_writes == outcome.wear.total_writes
        hot_set = 7 % outcome.wear.n_sets
        assert outcome.wear.set_writes[hot_set] == outcome.wear.total_writes
        assert (np.delete(outcome.wear.set_writes, hot_set) == 0).all()

    def test_leveling_gain_is_the_frame_count(self):
        """hottest == total means ideal leveling buys exactly n_frames."""
        pairs = [(7, True)] * 500
        outcome = _replay(pairs, Technique())
        estimate = estimate_lifetime(
            "Kang_P", CellClass.PCRAM, outcome.wear, window_s=1e-3
        )
        n_frames = outcome.wear.n_sets * outcome.wear.associativity
        assert estimate.leveling_gain == pytest.approx(n_frames)


class TestLevelingTimesCompression:
    def test_rotation_spreads_compressed_wear_across_sets(self):
        pairs = [(7, True)] * 512
        still = _replay(pairs, CompressedLLC.uniform(16))
        rotated = _replay(
            pairs, CompressedLLC.uniform(16, leveling_period=64)
        )
        assert still.wear.max_set_writes == still.wear.total_writes
        assert rotated.wear.max_set_writes < rotated.wear.total_writes
        # Rotation touched every set of this 4-set cache.
        assert (rotated.wear.set_writes > 0).all()

    def test_rotation_does_not_change_byte_accounting(self):
        """Line sizes are a property of the true block address, so the
        rotated placement programs exactly the same bytes.  (Write-only
        stream: every write programs the array wherever it lands, so
        the event count itself is placement-independent.)"""
        pairs = [(b % 32, True) for b in range(600)]
        still = _replay(pairs, CompressedLLC.for_workload("gobmk"))
        rotated = _replay(
            pairs, CompressedLLC.for_workload("gobmk", leveling_period=50)
        )
        assert rotated.write_bytes == still.write_bytes
        assert rotated.compressed_writes == still.compressed_writes
        assert rotated.wear.total_writes == still.wear.total_writes

    def test_fraction_and_frames_compose_in_the_forecast(self):
        pairs = [(b % 16, True) for b in range(400)]
        outcome = _replay(pairs, CompressedLLC.uniform(16))
        full = estimate_lifetime(
            "Kang_P", CellClass.PCRAM, outcome.wear, 1e-3,
            n_frames=outcome.n_frames,
        )
        scaled = estimate_lifetime(
            "Kang_P", CellClass.PCRAM, outcome.wear, 1e-3,
            n_frames=outcome.n_frames,
            cell_write_fraction=outcome.write_bytes_fraction,
        )
        # Quarter-size lines -> 4x the unleveled forecast, exactly.
        assert outcome.write_bytes_fraction == pytest.approx(0.25)
        assert scaled.unleveled_years == pytest.approx(
            4 * full.unleveled_years
        )


class TestForecastValidation:
    def test_rejects_nonpositive_window(self):
        wear = WearSummary(4, ASSOC, 0, np.zeros(4, dtype=np.int64), 0)
        with pytest.raises(SimulationError):
            estimate_lifetime("Kang_P", CellClass.PCRAM, wear, 0.0)

    def test_rejects_out_of_range_fraction(self):
        wear = WearSummary(4, ASSOC, 1, np.ones(4, dtype=np.int64), 1)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(SimulationError):
                estimate_lifetime(
                    "Kang_P", CellClass.PCRAM, wear, 1.0,
                    cell_write_fraction=bad,
                )

    def test_rejects_nonpositive_frame_count(self):
        wear = WearSummary(4, ASSOC, 1, np.ones(4, dtype=np.int64), 1)
        with pytest.raises(SimulationError):
            estimate_lifetime(
                "Kang_P", CellClass.PCRAM, wear, 1.0, n_frames=0
            )
