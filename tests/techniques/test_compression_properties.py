"""Property-based invariants of the compressed-LLC family.

Laws the compacted-way design must obey for *every* access stream and
size distribution (numbered as in ``docs/COMPRESSION.md``; law 1,
ratio 1.0 replays exactly like the uncompressed baseline, is a
relation of ``tests/property/test_replay_conformance.py``):

2. effective capacity and hit counts are monotone non-decreasing in
   compressibility (smaller lines never evict what bigger lines kept);
3. compressed write energy never exceeds uncompressed for the same
   stream (bytes programmed can only shrink);
4. the lifetime forecast is non-decreasing under any write-count (or
   per-cell write-fraction) reduction.

Laws 3 and 4 are also checked end to end on every cell of the
compression study.
"""

from __future__ import annotations

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cells.base import CellClass
from repro.endurance.lifetime import estimate_lifetime
from repro.endurance.wear import WearSummary
from repro.experiments import compression
from repro.experiments.common import ExperimentContext
from repro.techniques.base import Technique
from repro.techniques.compression import CompressedLLC
from repro.techniques.replay import replay_with_technique
from tests.streams import llc_stream

#: Small geometry so short random streams actually contend: 4 sets x
#: 4 ways of 64 B.
CAPACITY = 4 * 4 * 64
ASSOC = 4

ACCESS = st.tuples(
    st.integers(min_value=0, max_value=127),  # block
    st.booleans(),  # write flag
)

#: The eight compressed-size classes (eighths of a 64 B line).
SIZES = st.sampled_from([8, 16, 24, 32, 40, 48, 56, 64])


def _replay(accesses, technique):
    stream = llc_stream([a[0] for a in accesses], [a[1] for a in accesses])
    return replay_with_technique(stream, technique, CAPACITY, ASSOC, 64, n_cores=1)


@given(
    accesses=st.lists(ACCESS, max_size=300),
    small=SIZES,
    large=SIZES,
)
@settings(max_examples=60, deadline=None)
def test_hits_and_capacity_monotone_in_compressibility(accesses, small, large):
    """Shrinking every line never loses hits or effective capacity."""
    if small > large:
        small, large = large, small
    more = _replay(accesses, CompressedLLC.uniform(small))
    less = _replay(accesses, CompressedLLC.uniform(large))
    assert more.counts.read_hits >= less.counts.read_hits
    assert more.counts.write_hits >= less.counts.write_hits
    assert more.mean_resident_lines >= less.mean_resident_lines
    assert more.effective_capacity_bytes >= less.effective_capacity_bytes


@given(accesses=st.lists(ACCESS, max_size=300), size=SIZES)
@settings(max_examples=60, deadline=None)
def test_compressed_write_energy_never_exceeds_uncompressed(accesses, size):
    """Bytes programmed (the energy bill) only shrink under compression."""
    base = _replay(accesses, Technique())
    comp = _replay(accesses, CompressedLLC.uniform(size))
    assert comp.write_bytes <= base.write_bytes
    # Energy is write_bytes/block_bytes * E_write: same monotonicity.
    assert comp.write_bytes_fraction <= 1.0
    assert comp.compressed_writes + comp.uncompressed_writes == (
        comp.wear.total_writes
    )


WRITES = st.integers(min_value=0, max_value=10_000)


@given(
    total=WRITES,
    hottest=WRITES,
    cut=st.floats(min_value=0.0, max_value=1.0),
    fraction=st.floats(min_value=0.125, max_value=1.0),
)
@settings(max_examples=80, deadline=None)
def test_lifetime_non_decreasing_under_write_reduction(
    total, hottest, cut, fraction
):
    """Removing writes (or shrinking the per-cell fraction) never
    shortens the forecast."""
    hottest = min(hottest, total)
    n_sets = 4
    before = WearSummary(
        n_sets=n_sets,
        associativity=ASSOC,
        total_writes=total,
        set_writes=np.full(n_sets, total // n_sets, dtype=np.int64),
        hottest_line_writes=hottest,
    )
    cut_total = int(total * (1.0 - cut))
    cut_hottest = min(hottest, cut_total)
    after = WearSummary(
        n_sets=n_sets,
        associativity=ASSOC,
        total_writes=cut_total,
        set_writes=np.full(n_sets, cut_total // n_sets, dtype=np.int64),
        hottest_line_writes=cut_hottest,
    )
    base = estimate_lifetime("Kang_P", CellClass.PCRAM, before, window_s=1e-3)
    less_writes = estimate_lifetime(
        "Kang_P", CellClass.PCRAM, after, window_s=1e-3
    )
    assert less_writes.unleveled_years >= base.unleveled_years
    assert less_writes.leveled_years >= base.leveled_years
    # The per-cell fraction is a pure rate scale: any fraction <= 1
    # also never shortens the forecast.
    scaled = estimate_lifetime(
        "Kang_P", CellClass.PCRAM, before, window_s=1e-3,
        cell_write_fraction=fraction,
    )
    assert scaled.unleveled_years >= base.unleveled_years
    assert scaled.leveled_years >= base.leveled_years


def test_study_cells_outlive_and_undercut_the_uncompressed_baseline():
    """On the real workloads, every (workload, LLC) cell of the study
    forecasts an unleveled lifetime at least as long as, and a total
    energy no higher than, the same cell without compression."""
    study = compression.run(ExperimentContext(scale=0.05))
    assert len(study.cells) == 6
    for cell in study.cells:
        assert cell.lifetime_gain >= 1.0, cell
        assert cell.energy_ratio <= 1.0, cell
