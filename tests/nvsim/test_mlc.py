"""Tests for the MLC derivation."""

import pytest

from repro import units
from repro.cells.library import CHUNG, NVM_CELLS, SRAM, XUE, ZHANG
from repro.errors import ModelGenerationError
from repro.nvsim.mlc import (
    MLC_ENERGY_FACTOR,
    MLC_PULSE_FACTOR,
    compare_slc_mlc,
    derive_mlc_cell,
)

#: The eight single-level NVM cells.
SLC_CELLS = [cell for cell in NVM_CELLS if cell.bits_per_cell == 1]


class TestDeriveMLCCell:
    def test_doubles_bits(self):
        mlc = derive_mlc_cell(CHUNG)
        assert mlc.bits_per_cell == 2
        assert mlc.name == "ChungMLC"
        assert mlc.cell_class is CHUNG.cell_class

    def test_pulse_and_energy_stretched(self):
        mlc = derive_mlc_cell(CHUNG)
        assert mlc.value("set_pulse_ns") == pytest.approx(
            CHUNG.value("set_pulse_ns") * MLC_PULSE_FACTOR
        )
        assert mlc.value("set_energy_pj") == pytest.approx(
            CHUNG.value("set_energy_pj") * MLC_ENERGY_FACTOR
        )

    def test_footprint_unchanged(self):
        mlc = derive_mlc_cell(ZHANG)
        assert mlc.value("cell_size_f2") == ZHANG.value("cell_size_f2")
        assert mlc.value("process_nm") == ZHANG.value("process_nm")

    def test_already_mlc_unchanged(self):
        assert derive_mlc_cell(XUE) is XUE

    def test_sram_rejected(self):
        with pytest.raises(ModelGenerationError):
            derive_mlc_cell(SRAM)


class TestCompareSLCMLC:
    @pytest.fixture(
        scope="class", params=SLC_CELLS, ids=lambda cell: cell.display_name
    )
    def cell(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def comparison(self, cell):
        return compare_slc_mlc(cell)

    def test_fixed_area_capacity_gain(self, cell, comparison):
        # Two bits per cell doubles the capacity in the same silicon,
        # except where the SLC array already overshoots the budget at
        # the bottom of the capacity ladder: a 2 MB MLC array is as
        # large as that 1 MB SLC one, so both stay at 1 MB.
        bottom_rung = cell.display_name in ("Oh_P", "Jan_S")
        assert comparison.capacity_gain == (1.0 if bottom_rung else 2.0)

    def test_read_latency_penalty(self, comparison):
        # Two-step sensing slows reads (the paper's Xue_S reads at
        # 2.9 ns despite a 1.2 V read for the same reason).
        assert 1.24 < comparison.read_latency_penalty < 1.76

    def test_write_latency_penalty(self, comparison):
        assert 2.2 < comparison.write_latency_penalty < 2.5

    def test_same_capacity_at_fixed_capacity(self, comparison):
        assert (
            comparison.mlc_fixed_capacity.capacity_bytes
            == comparison.slc_fixed_capacity.capacity_bytes
            == 2 * units.MB
        )

    def test_rram_mlc_density(self):
        comparison = compare_slc_mlc(ZHANG)
        assert comparison.mlc_fixed_area.capacity_bytes >= (
            comparison.slc_fixed_area.capacity_bytes
        )
