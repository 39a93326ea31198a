"""Tests for per-class NVSim-requirement validation."""

import pytest

from repro.cells.base import CellClass, Param, Provenance
from repro.cells.heuristics import apply_electrical_properties
from repro.cells.library import ALL_CELLS, CHUNG, OH, SRAM
from repro.cells.validation import (
    PLAUSIBILITY_BOUNDS,
    check_plausibility,
    describe_provenance,
    required_parameters,
    require_complete,
    require_plausible,
    validate_cell,
)
from repro.errors import CellParameterError, PlausibilityError


class TestRequiredParameters:
    def test_pcram_requires_currents(self):
        required = required_parameters(CellClass.PCRAM)
        assert "read_current_ua" in required
        assert "read_voltage_v" not in required

    def test_sttram_requires_energies(self):
        required = required_parameters(CellClass.STTRAM)
        assert "set_energy_pj" in required
        assert "read_power_uw" in required

    def test_rram_requires_voltages(self):
        required = required_parameters(CellClass.RRAM)
        assert "set_voltage_v" in required
        assert "set_current_ua" not in required


class TestValidateCell:
    def test_library_cells_complete_after_heuristic1(self):
        # Every released cell must be NVSim-specifiable once heuristic 1
        # fills the electrically-derivable gaps (the paper's pipeline).
        for cell in ALL_CELLS:
            report = validate_cell(apply_electrical_properties(cell))
            assert report.is_complete, (cell.display_name, report.missing)

    def test_chung_reports_derived_parameters(self):
        report = validate_cell(CHUNG)
        assert "read_power_uw" in report.derived
        assert "reset_energy_pj" in report.derived

    def test_derived_fraction_bounds(self):
        for cell in ALL_CELLS:
            fraction = validate_cell(cell).derived_fraction
            assert 0.0 <= fraction <= 1.0

    def test_missing_parameter_detected(self):
        # Oh lacks set/reset energy until heuristic 1 runs.
        report = validate_cell(OH)
        assert report.is_complete  # PCRAM requires currents, which Oh has

    def test_require_complete_passes_for_sram(self):
        require_complete(SRAM)

    def test_require_complete_raises_with_names(self):
        incomplete = CHUNG.with_params(read_power_uw=None)
        with pytest.raises(CellParameterError) as excinfo:
            require_complete(incomplete)
        assert "read_power_uw" in str(excinfo.value)


class TestPlausibility:
    def test_library_cells_all_plausible(self):
        # The paper's own cells — published or heuristic-filled — must
        # never trip the bounds; they exist to catch unit mistakes.
        for cell in ALL_CELLS:
            assert check_plausibility(apply_electrical_properties(cell)) == []

    def test_out_of_range_value_flagged(self):
        lo, hi = PLAUSIBILITY_BOUNDS["set_pulse_ns"]
        broken = OH.with_params(
            set_pulse_ns=Param(hi * 10, Provenance.INTERPOLATED)
        )
        violations = check_plausibility(broken)
        assert any(v.parameter == "set_pulse_ns" for v in violations)

    def test_violation_names_the_heuristic(self):
        broken = OH.with_params(
            set_pulse_ns=Param(1e7, Provenance.INTERPOLATED)
        )
        with pytest.raises(PlausibilityError) as excinfo:
            require_plausible(broken)
        error = excinfo.value
        assert "heuristic 2" in error.provenance
        assert error.field == "set_pulse_ns"
        assert "Oh_P" in str(error)

    def test_pcram_pulse_ordering_checked(self):
        # set (crystallisation) faster than reset means the operations
        # were swapped somewhere upstream.
        swapped = OH.with_params(
            set_pulse_ns=Param(5.0, Provenance.REPORTED),
            reset_pulse_ns=Param(100.0, Provenance.REPORTED),
        )
        violations = check_plausibility(swapped)
        assert any("set>=reset" in v.bound for v in violations)

    def test_write_below_read_energy_flagged(self):
        cheap_write = CHUNG.with_params(
            set_energy_pj=Param(1e-4, Provenance.SIMILARITY),
            reset_energy_pj=Param(1e-4, Provenance.SIMILARITY),
        )
        violations = check_plausibility(cheap_write)
        assert any("write>=read" in v.bound for v in violations)

    def test_describe_provenance_labels(self):
        assert "reported" in describe_provenance(
            Param(1.0, Provenance.REPORTED)
        )
        assert "heuristic 1" in describe_provenance(
            Param(1.0, Provenance.ELECTRICAL)
        )
        assert "heuristic 3" in describe_provenance(
            Param(1.0, Provenance.SIMILARITY, note="donor: Kang")
        )
