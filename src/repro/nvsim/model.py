"""The LLC model — the interface between circuit and system simulation.

An :class:`LLCModel` is what the paper's Table III tabulates: everything
the system simulator needs to know about one LLC technology at one
design point.  Models come from two sources:

- :func:`generate_llc_model` — the library's simplified NVSim-equivalent
  circuit model (auditable methodology);
- :mod:`repro.nvsim.published` — the paper's published Table III values
  (exact experiment inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import units
from repro.cells.base import CellClass, NVMCell
from repro.cells.heuristics import apply_electrical_properties
from repro.cells.validation import require_complete, require_plausible
from repro.errors import ModelGenerationError
from repro.nvsim.area import compute_area
from repro.nvsim.config import CacheDesign
from repro.nvsim.energy import compute_energy
from repro.nvsim.timing import compute_timing


@dataclass(frozen=True)
class LLCModel:
    """A complete LLC technology model (one column of Table III).

    Latencies in seconds, energies in joules, leakage in watts, area in
    mm^2 (kept in Table III's unit since it is only reported, never
    integrated).
    """

    name: str
    cell_class: CellClass
    capacity_bytes: int
    area_mm2: float
    tag_latency_s: float
    read_latency_s: float
    set_latency_s: float
    reset_latency_s: float
    hit_energy_j: float
    miss_energy_j: float
    write_energy_j: float
    leakage_w: float
    source: str = "generated"

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ModelGenerationError(f"{self.name}: nonpositive capacity")
        for attr in (
            "area_mm2",
            "tag_latency_s",
            "read_latency_s",
            "set_latency_s",
            "reset_latency_s",
            "hit_energy_j",
            "miss_energy_j",
            "write_energy_j",
        ):
            if getattr(self, attr) < 0:
                raise ModelGenerationError(f"{self.name}: negative {attr}")

    # -- convenience ----------------------------------------------------

    @property
    def is_sram(self) -> bool:
        """True for the SRAM baseline model."""
        return self.cell_class is CellClass.SRAM

    @property
    def write_latency_s(self) -> float:
        """Worst-case write latency (max of set and reset)."""
        return max(self.set_latency_s, self.reset_latency_s)

    @property
    def mean_write_latency_s(self) -> float:
        """Mean of set and reset latency — the expected block write cost
        when written bits are an even set/reset mix."""
        return 0.5 * (self.set_latency_s + self.reset_latency_s)

    @property
    def capacity_mb(self) -> float:
        """Capacity in MiB."""
        return units.to_mb(self.capacity_bytes)

    @property
    def write_read_latency_ratio(self) -> float:
        """Write/read latency asymmetry."""
        return self.write_latency_s / self.read_latency_s

    @property
    def write_hit_energy_ratio(self) -> float:
        """Write/hit energy asymmetry."""
        return self.write_energy_j / self.hit_energy_j

    def scaled_capacity(self, capacity_bytes: int) -> "LLCModel":
        """A copy at a different capacity with first-order rescaling.

        Leakage scales linearly with bits; latencies and energies are
        left unchanged (second-order for modest scale factors).  Used by
        tests and the core-sweep sensitivity study, not by the published
        fixed-area models (which carry their own measured values).
        """
        factor = capacity_bytes / self.capacity_bytes
        return replace(
            self,
            capacity_bytes=capacity_bytes,
            leakage_w=self.leakage_w * factor,
            area_mm2=self.area_mm2 * factor,
            source=f"{self.source}+scaled",
        )


def generate_llc_model(cell: NVMCell, design: CacheDesign) -> LLCModel:
    """Run the circuit model on a cell and produce its LLC model.

    Heuristic 1 (electrical properties) is applied first, closing any
    gaps derivable from reported parameters — e.g. PCRAM set/reset
    energies from currents and pulses via equation (2).  The cell must
    then pass :func:`repro.cells.validation.require_complete` and — so
    a heuristic-derived value that is physically impossible fails here,
    naming the heuristic, rather than skewing a sweep —
    :func:`repro.cells.validation.require_plausible`.  The finished
    model passes
    :func:`repro.validate.guard.guard_model` before being returned.
    """
    from repro.validate.guard import guard_model

    cell = apply_electrical_properties(cell)
    require_complete(cell)
    require_plausible(cell)
    timing = compute_timing(cell, design)
    energy = compute_energy(cell, design)
    area = compute_area(cell, design)
    set_latency = timing.set_latency_s
    reset_latency = timing.reset_latency_s
    if cell.cell_class is not CellClass.PCRAM:
        # Only PCRAM's set/reset differ enough for Table III to split
        # them; other classes report a single write latency.
        worst = max(set_latency, reset_latency)
        set_latency = reset_latency = worst
    return guard_model(LLCModel(
        name=cell.display_name,
        cell_class=cell.cell_class,
        capacity_bytes=design.capacity_bytes,
        area_mm2=area.total_mm2,
        tag_latency_s=timing.tag_latency_s,
        read_latency_s=timing.read_latency_s,
        set_latency_s=set_latency,
        reset_latency_s=reset_latency,
        hit_energy_j=energy.hit_energy_j,
        miss_energy_j=energy.miss_energy_j,
        write_energy_j=energy.write_energy_j,
        leakage_w=energy.leakage_w,
        source="generated",
    ))
