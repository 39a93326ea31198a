"""Per-class parameter validation for NVSim-style specification.

Section III of the paper lists which parameters NVSim requires per
technology class.  :func:`required_parameters` encodes that list and
:func:`validate_cell` checks a cell against it, reporting which gaps
remain and which were closed by heuristics — the machine-checkable form
of the paper's "apples-to-apples" requirement.

Beyond presence, :func:`check_plausibility` range- and
consistency-checks every *value* — published or heuristic-derived —
against published-silicon bounds (:data:`PLAUSIBILITY_BOUNDS`).  The
paper's comparison rests on heuristic-filled parameters (equations
(1)-(3)), so a heuristic that extrapolates into physical nonsense must
fail loudly, naming the heuristic that produced the number:
:func:`require_plausible` raises
:class:`~repro.errors.PlausibilityError` carrying the parameter, value,
bound and full provenance chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cells.base import CellClass, NVMCell, Param, Provenance
from repro.errors import CellParameterError, PlausibilityError

#: Parameters NVSim needs per class (paper Section III, prose list).
_REQUIRED: Dict[CellClass, Tuple[str, ...]] = {
    CellClass.PCRAM: (
        "process_nm",
        "cell_size_f2",
        "read_current_ua",
        "read_energy_pj",
        "reset_current_ua",
        "reset_pulse_ns",
        "set_current_ua",
        "set_pulse_ns",
    ),
    CellClass.STTRAM: (
        "process_nm",
        "cell_size_f2",
        "read_voltage_v",
        "read_power_uw",
        "reset_current_ua",
        "reset_pulse_ns",
        "reset_energy_pj",
        "set_current_ua",
        "set_pulse_ns",
        "set_energy_pj",
    ),
    CellClass.RRAM: (
        "process_nm",
        "cell_size_f2",
        "read_voltage_v",
        "read_power_uw",
        "reset_voltage_v",
        "reset_pulse_ns",
        "reset_energy_pj",
        "set_voltage_v",
        "set_pulse_ns",
        "set_energy_pj",
    ),
    CellClass.SRAM: (
        "process_nm",
        "cell_size_f2",
    ),
}


def required_parameters(cell_class: CellClass) -> Tuple[str, ...]:
    """The NVSim-required parameter names for a technology class."""
    return _REQUIRED[cell_class]


@dataclass
class ValidationReport:
    """Outcome of validating a cell for NVSim specification.

    Attributes
    ----------
    cell_name:
        Display name of the validated cell.
    missing:
        Required parameters with no value at all — the cell cannot be
        specified until these are filled (by a heuristic or otherwise).
    derived:
        Required parameters present but produced by a heuristic, keyed
        by parameter name with the heuristic's provenance.
    reported:
        Required parameters taken directly from the cited paper.
    """

    cell_name: str
    missing: List[str] = field(default_factory=list)
    derived: Dict[str, Provenance] = field(default_factory=dict)
    reported: List[str] = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        """True when every required parameter has a value."""
        return not self.missing

    @property
    def derived_fraction(self) -> float:
        """Fraction of required parameters that heuristics supplied."""
        total = len(self.missing) + len(self.derived) + len(self.reported)
        if total == 0:
            return 0.0
        return len(self.derived) / total


def validate_cell(cell: NVMCell) -> ValidationReport:
    """Check a cell against its class's NVSim requirements."""
    report = ValidationReport(cell_name=cell.display_name)
    for key in required_parameters(cell.cell_class):
        param = cell.get(key)
        if param is None:
            report.missing.append(key)
        elif param.provenance.is_derived:
            report.derived[key] = param.provenance
        else:
            report.reported.append(key)
    return report


def require_complete(cell: NVMCell) -> None:
    """Raise :class:`CellParameterError` unless the cell is specifiable."""
    report = validate_cell(cell)
    if not report.is_complete:
        raise CellParameterError(
            f"{cell.display_name} is missing required parameters: "
            + ", ".join(report.missing)
        )


# ---------------------------------------------------------------------------
# Physical plausibility
# ---------------------------------------------------------------------------

#: Inclusive ``(lo, hi)`` plausibility range per parameter, in the
#: engineering units of Table II.  Deliberately generous — roughly an
#: order of magnitude beyond any silicon published for these classes —
#: so they trip on unit mistakes and runaway heuristics, never on a
#: legitimate prototype.
PLAUSIBILITY_BOUNDS: Dict[str, Tuple[float, float]] = {
    "process_nm": (5.0, 1000.0),
    "cell_size_f2": (1.0, 2000.0),
    "cell_levels": (1.0, 8.0),
    "read_current_ua": (0.1, 1e5),
    "read_voltage_v": (0.01, 20.0),
    "read_power_uw": (1e-3, 1e6),
    "read_energy_pj": (1e-5, 1e4),
    "reset_current_ua": (0.1, 1e5),
    "reset_voltage_v": (0.01, 20.0),
    "reset_pulse_ns": (0.01, 1e5),
    "reset_energy_pj": (1e-5, 1e4),
    "set_current_ua": (0.1, 1e5),
    "set_voltage_v": (0.01, 20.0),
    "set_pulse_ns": (0.01, 1e5),
    "set_energy_pj": (1e-5, 1e4),
}


def describe_provenance(param: Param) -> str:
    """Human-readable provenance chain for one parameter value.

    Names the heuristic that produced a derived value — the error must
    say *which heuristic* computed the implausible number, not just
    that one is implausible.
    """
    labels = {
        Provenance.REPORTED: "reported in the cited paper",
        Provenance.ELECTRICAL: "derived via heuristic 1 (electrical properties)",
        Provenance.INTERPOLATED: "derived via heuristic 2 (interpolation)",
        Provenance.SIMILARITY: "derived via heuristic 3 (similarity)",
        Provenance.NOT_APPLICABLE: "not applicable",
    }
    text = labels[param.provenance]
    if param.note:
        text += f": {param.note}"
    return text


@dataclass(frozen=True)
class PlausibilityViolation:
    """One implausible cell parameter: what, where, why."""

    cell_name: str
    parameter: str
    value: float
    bound: str
    provenance: str

    def message(self) -> str:
        return (
            f"{self.cell_name}: {self.parameter}={self.value:g} violates "
            f"{self.bound} ({self.provenance})"
        )


def _violation(cell: NVMCell, parameter: str, param: Param,
               bound: str) -> PlausibilityViolation:
    return PlausibilityViolation(
        cell_name=cell.display_name,
        parameter=parameter,
        value=param.value,
        bound=bound,
        provenance=describe_provenance(param),
    )


def check_plausibility(cell: NVMCell) -> List[PlausibilityViolation]:
    """Range- and consistency-check every set parameter of a cell.

    Checks (all on the *values*, whatever their provenance):

    - every parameter within its :data:`PLAUSIBILITY_BOUNDS` range;
    - PCRAM set pulse at least as long as reset pulse (crystallisation
      is the slow transition; a heuristic that inverts the ordering has
      mixed the operations up);
    - for NVM classes with both derivable, per-bit write energy at
      least the per-bit read energy (a destructive program operation
      below sensing cost is a unit error).
    """
    violations: List[PlausibilityViolation] = []
    for parameter, param in cell.parameters():
        bounds = PLAUSIBILITY_BOUNDS.get(parameter)
        if bounds is None:
            continue
        lo, hi = bounds
        if not lo <= param.value <= hi:
            violations.append(
                _violation(cell, parameter, param,
                           f"plausible range [{lo:g}, {hi:g}]")
            )

    if (
        cell.cell_class is CellClass.PCRAM
        and cell.set_pulse_ns is not None
        and cell.reset_pulse_ns is not None
        and cell.set_pulse_ns.value < cell.reset_pulse_ns.value
    ):
        violations.append(
            _violation(
                cell, "set_pulse_ns", cell.set_pulse_ns,
                f"set>=reset pulse ordering (reset is "
                f"{cell.reset_pulse_ns.value:g} ns)",
            )
        )

    if cell.cell_class.is_nvm:
        try:
            read_j = cell.read_energy_j()
            write_j = cell.write_energy_j()
        except CellParameterError:
            pass  # not derivable yet; completeness checks report that
        else:
            if write_j < read_j:
                worst = min(
                    (p for p in (cell.set_energy_pj, cell.reset_energy_pj)
                     if p is not None),
                    key=lambda p: p.value,
                    default=None,
                )
                if worst is not None:
                    violations.append(
                        _violation(
                            cell, "set/reset energy", worst,
                            f"write>=read energy ordering (read is "
                            f"{read_j * 1e12:g} pJ/bit)",
                        )
                    )
    return violations


def require_plausible(cell: NVMCell) -> None:
    """Enforce :func:`check_plausibility`: raise
    :class:`~repro.errors.PlausibilityError` on the first violation."""
    from repro.obs import metrics as _metrics

    violations = check_plausibility(cell)
    if not violations:
        return
    _metrics.counter_add("validate.cells.violations", len(violations))
    first = violations[0]
    raise PlausibilityError(
        first.message(),
        subject=first.cell_name,
        field=first.parameter,
        value=first.value,
        bound=first.bound,
        provenance=first.provenance,
    )
