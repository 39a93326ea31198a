"""Lifetime estimation for NVM-based LLCs.

Combines a wear distribution (writes per line over a simulated window),
the simulated wall-clock duration of that window, and a technology's
endurance spec into a projected time-to-first-failure:

- *unleveled*: the hottest line keeps its observed write rate and fails
  first;
- *ideally leveled*: writes spread uniformly over all frames (the upper
  bound wear leveling approaches).

The gap between the two is the paper's motivation for the
wear-leveling techniques it categorises (Section I, group 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.cells.base import CellClass
from repro.endurance.model import SECONDS_PER_YEAR, EnduranceSpec, endurance_of
from repro.endurance.wear import WearSummary
from repro.errors import SimulationError


@dataclass(frozen=True)
class LifetimeEstimate:
    """Projected LLC lifetime for one technology and workload.

    ``None`` years means the technology does not wear out at cache
    write rates (SRAM, and effectively STTRAM for most workloads).
    """

    llc_name: str
    cell_class: CellClass
    window_s: float
    total_write_rate: float  # data-array writes per second
    hottest_line_rate: float  # writes/second into the hottest line
    unleveled_years: Optional[float]
    leveled_years: Optional[float]
    #: Fraction of a frame's cells programmed per write (1.0 = every
    #: write touches the whole line; compression lowers it).
    cell_write_fraction: float = 1.0

    @property
    def leveling_gain(self) -> Optional[float]:
        """Lifetime multiplier ideal wear leveling would buy."""
        if self.unleveled_years is None or self.leveled_years is None:
            return None
        if self.unleveled_years == 0:
            return float("inf")
        return self.leveled_years / self.unleveled_years


def estimate_lifetime(
    llc_name: str,
    cell_class: CellClass,
    wear: WearSummary,
    window_s: float,
    spec: Optional[EnduranceSpec] = None,
    n_frames: Optional[int] = None,
    cell_write_fraction: float = 1.0,
) -> LifetimeEstimate:
    """Project lifetime from a simulated wear window.

    Parameters
    ----------
    llc_name / cell_class:
        Identity of the LLC model the wear was replayed against.
    wear:
        Wear distribution from :func:`repro.endurance.wear.replay_with_wear`.
    window_s:
        Simulated wall-clock time the wear window represents.
    spec:
        Endurance override; defaults to the class's Table I values.
    n_frames:
        Physical frame count of the array.  Defaults to the wear
        summary's ``n_sets * associativity`` — the historical assumption
        that every line occupies exactly one frame.  Capacity-changing
        techniques (compacted-way compression) keep the *physical*
        frame count while holding more lines, so they pass the replay
        outcome's physical geometry explicitly.
    cell_write_fraction:
        Mean fraction of a frame's cells programmed per write, in
        ``(0, 1]``.  Full-size writes stress every cell (1.0); a
        compressed write programs only the compressed bytes, so each
        cell wears at this fraction of the write rate — the L2C2
        forecasting approximation (arXiv:2204.03512).
    """
    if window_s <= 0:
        raise SimulationError("wear window must have positive duration")
    if not 0.0 < cell_write_fraction <= 1.0:
        raise SimulationError(
            f"cell_write_fraction must be in (0, 1], got {cell_write_fraction!r}"
        )
    spec = spec or endurance_of(cell_class)

    if n_frames is None:
        n_frames = wear.n_sets * wear.associativity
    elif n_frames <= 0:
        raise SimulationError(f"n_frames must be positive, got {n_frames}")
    total_rate = wear.total_writes / window_s
    hottest_rate = wear.hottest_line_writes / window_s

    if not spec.is_limited:
        return LifetimeEstimate(
            llc_name=llc_name,
            cell_class=cell_class,
            window_s=window_s,
            total_write_rate=total_rate,
            hottest_line_rate=hottest_rate,
            unleveled_years=None,
            leveled_years=None,
            cell_write_fraction=cell_write_fraction,
        )

    # A frame is a block of cells written together; the frame's life is
    # the per-cell budget (first-failure adjusted for the array size).
    budget = spec.first_failure_budget(n_frames * 512)
    assert budget is not None  # is_limited guarantees a numeric limit

    # Per-cell wear rates: write rate scaled by the fraction of cells
    # each write actually programs (× 1.0 is float-exact, so full-size
    # writes reproduce the historical numbers bit for bit).
    cell_hottest_rate = hottest_rate * cell_write_fraction
    unleveled = math.inf if cell_hottest_rate == 0 else budget / cell_hottest_rate
    per_frame_rate = (
        (total_rate / n_frames) * cell_write_fraction if n_frames else 0.0
    )
    leveled = math.inf if per_frame_rate == 0 else budget / per_frame_rate

    return LifetimeEstimate(
        llc_name=llc_name,
        cell_class=cell_class,
        window_s=window_s,
        total_write_rate=total_rate,
        hottest_line_rate=hottest_rate,
        unleveled_years=unleveled / SECONDS_PER_YEAR,
        leveled_years=leveled / SECONDS_PER_YEAR,
        cell_write_fraction=cell_write_fraction,
    )
