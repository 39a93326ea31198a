"""Replay conformance: every replay path against the reference loops.

The paper's conclusions are LLC event counts, so every path that
replays a stream must agree exactly with the two per-access reference
loops, :func:`~repro.sim.hierarchy.filter_private_reference` and
:func:`~repro.sim.llc.simulate_llc_reference`.  One adversarial
generator (:func:`cases`) feeds one matrix of relations:

- two-stage private filter == reference loop:
  ``test_private_filter_matches_reference``, plus pinned cases — an L2
  eviction notice that spares a later store's invalidation, an
  invalidation whose write-back comes from the L2 copy alone, three
  L1 repeats the filter folds or must not fold, and a 32-core
  coresweep trace; and the same relation at 64 and 65 cores, either
  side of the packed (block, core) sort key;
- ``simulate_llc`` == reference loop, per policy:
  ``test_llc_replay_matches_reference``;
- identity technique replay == ``simulate_llc``, every field:
  ``test_identity_technique_matches_plain_replay``;
- ``replay_with_wear`` == the identity replays' wear:
  ``test_wear_replay_matches_identity_replay``;
- ``replay_with_technique`` == ``replay_with_technique_reference``
  under bypassing, leveling and compacted ways, every outcome field and
  the technique's counters: ``test_technique_replay_matches_reference``,
  with out-of-range line sizes failing alike
  (``test_out_of_range_size_fails_alike``);
- ``replay_with_wear`` == the reference loop's wear:
  ``test_wear_replay_matches_reference``;
- every Table V workload at scale 0.05, filter and LLC, == reference:
  ``test_table5_workload_matches_reference``.

``tests/property/test_engine_equivalence.py`` reruns the first two
relations, and the filter feeding the LLC, with one scenario pinned
per test (``cases(threads=..., **pinned)``).

Under LRU ``simulate_llc`` replays as vector rounds; under any other
policy it must take the reference loop, so the policy axis also pins
the dispatch.  The generator covers empty streams, single-set thrash,
all-write and all-read streams, 1-way caches, associativity above the
distinct-block count, block ids 0 and up to 2**64 - 1, and multi-core
interleavings with true sharing.
The technique columns add a six-set LLC.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.endurance.wear import WearSummary, replay_with_wear
from repro.errors import CompressionError
from repro.experiments.common import ExperimentContext
from repro.nvsim.published import sram_baseline
from repro.sim.config import CacheLevelConfig, gainestown
from repro.sim.hierarchy import filter_private, filter_private_reference
from repro.sim.llc import LLCCounts, simulate_llc, simulate_llc_reference
from repro.techniques.base import Technique
from repro.techniques.compression import CompressedLLC
from repro.techniques.early_write_termination import EarlyWriteTermination
from repro.techniques.replay import (
    replay_with_technique,
    replay_with_technique_reference,
)
from repro.techniques.wear_leveling import SetRotationLeveling
from repro.techniques.write_bypass import ReuseWriteBypass
from repro.trace.access import BLOCK_BITS
from repro.trace.stream import Trace
from repro.workloads.profiles import SIZE_CLASSES
from repro.workloads.registry import all_benchmarks
from tests.streams import llc_stream

#: (L1D, L2) as ((bytes, ways), (bytes, ways)): the cramped original,
#: 1-way levels, and ways outnumbering most cases' distinct blocks.
PRIVATE_GEOMETRIES = (
    ((256, 2), (512, 2)),
    ((64, 1), (128, 1)),
    ((512, 8), (2048, 16)),
)

#: LLC (blocks, ways): small set-associative shapes first (hypothesis
#: draws early entries more often), then direct-mapped, one 16-way set,
#: a 64-way fully associative set and the roomier 16-way shapes.
LLC_GEOMETRIES = (
    (16, 4), (8, 2), (4, 1), (16, 1), (16, 16), (64, 16), (256, 16), (64, 64),
)

#: Every set count above divides this, so ids congruent modulo it
#: thrash one set at every level.
THRASH_STRIDE = 64


@dataclass(frozen=True)
class Case:
    """One adversarial scenario, as a trace and as a direct LLC stream.

    ``trace_blocks`` stay below 2**58 so their byte addresses fit in
    uint64; ``llc_blocks`` use the whole uint64 range.
    """

    trace_blocks: Tuple[int, ...]
    llc_blocks: Tuple[int, ...]
    writes: Tuple[bool, ...]
    threads: Tuple[int, ...]
    gaps: Tuple[int, ...]
    n_cores: int = 4
    private_geometry: tuple = PRIVATE_GEOMETRIES[0]
    llc_geometry: Tuple[int, int] = (16, 4)
    mlp: Tuple[int, float] = (128, 6.0)

    def trace(self) -> Trace:
        return Trace(
            addresses=np.array(
                [(b << BLOCK_BITS) | (b % 7) for b in self.trace_blocks],
                dtype=np.uint64,
            ),
            writes=np.array(self.writes, dtype=bool),
            thread_ids=np.array(self.threads, dtype=np.uint16),
            gaps=np.array(self.gaps, dtype=np.uint32),
            name="conformance",
        )

    def arch(self):
        (l1, l1_ways), (l2, l2_ways) = self.private_geometry
        return dataclasses.replace(
            gainestown(n_cores=self.n_cores),
            l1d=CacheLevelConfig(l1, l1_ways),
            l2=CacheLevelConfig(l2, l2_ways),
        )

    def stream(self):
        """The LLC stream: threads fold onto cores, and each core's
        instruction position advances by ``gap + 1`` per access."""
        cores = [t % self.n_cores for t in self.threads]
        clock = [0] * self.n_cores
        positions = []
        for core, gap in zip(cores, self.gaps):
            clock[core] += gap + 1
            positions.append(clock[core])
        return llc_stream(self.llc_blocks, self.writes, cores, positions)

    @property
    def geometry(self) -> dict:
        blocks, ways = self.llc_geometry
        window, ceiling = self.mlp
        return dict(
            capacity_bytes=blocks * 64,
            associativity=ways,
            block_bytes=64,
            n_cores=self.n_cores,
            mlp_window=window,
            mlp_ceiling=ceiling,
        )


REGIONS = ("low", "middle", "top")


def _block_id(region: str, k: int, bits: int, stride: int, lane: int) -> int:
    """The ``k``-th of 48 ids in a region of a ``bits``-wide id space.

    ``low`` starts at 0 (the tag every empty vector way holds) and
    ``top`` ends at ``2**bits - 1``; with ``stride`` 64 every id is
    congruent to ``lane`` modulo 64.
    """
    span = 48 * stride
    base = {
        "low": 0,
        "middle": (1 << (bits - 1)) - span // 2,
        "top": (1 << bits) - span,
    }
    return base[region] + k * stride + (lane if stride > 1 else 0)


def _gap(code: int) -> int:
    """Mostly short gaps, sometimes ones longer than an MLP window."""
    return code % 21 if code < 2048 else 100 + code % 301


@st.composite
def cases(draw, threads=(1, 5), geometries=LLC_GEOMETRIES, **pinned) -> Case:
    """Adversarial replay scenarios (see the module docstring).

    Sizes are drawn first so long streams and wide universes are as
    likely as short ones; each access is one integer whose bit fields
    pick the block, the write flag, the thread and the gap.  The thread
    count is drawn from the ``threads`` range and the LLC shape from
    ``geometries``; ``pinned`` fixes other :class:`Case` fields.
    """
    size = draw(st.integers(1, 48))
    picks = st.lists(
        st.integers(0, 3 * 48 - 1), min_size=size, max_size=size, unique=True
    )
    universe = [(REGIONS[e // 48], e % 48) for e in draw(picks)]
    stride = draw(st.sampled_from((1, 1, THRASH_STRIDE)))
    lane = draw(st.integers(0, THRASH_STRIDE - 1))
    n_threads = draw(st.integers(*threads))
    n = draw(st.integers(0, 300))
    codes = draw(st.lists(st.integers(0, (1 << 24) - 1), min_size=n, max_size=n))
    mode = draw(st.sampled_from(("mixed", "mixed", "all-write", "all-read")))
    chosen = [universe[c % size] for c in codes]
    case = Case(
        trace_blocks=tuple(_block_id(r, k, 58, stride, lane) for r, k in chosen),
        llc_blocks=tuple(_block_id(r, k, 64, stride, lane) for r, k in chosen),
        writes=tuple(
            {"mixed": bool(c >> 8 & 1), "all-write": True, "all-read": False}[mode]
            for c in codes
        ),
        threads=tuple((c >> 9) % n_threads for c in codes),
        gaps=tuple(_gap(c >> 12) for c in codes),
        n_cores=draw(st.sampled_from((4, 2, 1))),
        private_geometry=draw(st.sampled_from(PRIVATE_GEOMETRIES)),
        llc_geometry=draw(st.sampled_from(geometries)),
        mlp=draw(st.sampled_from(((128, 6.0), (16, 2.0)))),
    )
    return dataclasses.replace(case, **pinned)


#: Block 8 fills way 0 of set 0 first, so the write to block 0 meets
#: empty ways tagged 0 and must still miss; ids at and above 2**63, up
#: to 2**64 - 1, are ordinary tags.
UINT64_EXTREMES = Case(
    trace_blocks=((1 << 57) + 3, 8, 0, 5, (1 << 58) - 1, 5, 0, (1 << 57) + 3, 0),
    llc_blocks=((1 << 63) + 3, 8, 0, 5, (1 << 64) - 1, 5, 0, (1 << 63) + 3, 0),
    writes=(False, False, True, False, False, False, False, True, False),
    threads=(0,) * 9,
    gaps=(0,) * 9,
    llc_geometry=(64, 8),
)

EMPTY = Case(trace_blocks=(), llc_blocks=(), writes=(), threads=(), gaps=())

#: Six sets and writes to ids up to 2**64 - 1: a rotated set index taken
#: as ``(block + offset) % 6`` in uint64 wraps past 2**64 where the
#: reference loop's Python ints do not, and lands in another set.
SIX_SETS_TOP = Case(
    trace_blocks=(0,) * 12,
    llc_blocks=tuple((1 << 64) - 1 - k % 4 for k in range(12)),
    writes=(True,) * 12,
    threads=(0,) * 12,
    gaps=(0,) * 12,
    llc_geometry=(24, 4),
)


def assert_private_equal(got, want):
    for column in ("blocks", "writes", "cores", "instr_positions"):
        np.testing.assert_array_equal(
            getattr(got.stream, column), getattr(want.stream, column)
        )
    assert got.per_core == want.per_core
    assert got.directory == want.directory
    assert got.n_threads == want.n_threads


def assert_wear_equal(got, want):
    assert (got.n_sets, got.associativity, got.total_writes) == (
        want.n_sets, want.associativity, want.total_writes,
    )
    np.testing.assert_array_equal(got.set_writes, want.set_writes)
    assert got.hottest_line_writes == want.hottest_line_writes


def assert_outcome_equal(got, want):
    """Every field, each of the reference's Python type (a strict
    ``guard_compression`` rejects a numpy integer)."""
    assert_wear_equal(got.wear, want.wear)
    assert got.wear.set_writes.dtype == want.wear.set_writes.dtype
    assert dataclasses.replace(got, wear=None) == dataclasses.replace(
        want, wear=None
    )
    for mine, theirs in ((got, want), (got.counts, want.counts),
                         (got.wear, want.wear)):
        for field in dataclasses.fields(theirs):
            value, expected = getattr(mine, field.name), getattr(theirs, field.name)
            if isinstance(expected, list):
                assert list(map(type, value)) == list(map(type, expected)), field.name
            elif not isinstance(expected, (np.ndarray, LLCCounts, WearSummary)):
                assert type(value) is type(expected), field.name


@given(case=cases())
@example(case=UINT64_EXTREMES)
@example(case=EMPTY)
@settings(max_examples=250, deadline=None)
def test_private_filter_matches_reference(case):
    trace, arch = case.trace(), case.arch()
    assert_private_equal(
        filter_private(trace, arch), filter_private_reference(trace, arch)
    )


@pytest.mark.parametrize("n_cores", (64, 65))
@given(case=cases(threads=(2, 80)))
@settings(max_examples=40, deadline=None)
def test_private_filter_matches_reference_past_64_cores(n_cores, case):
    """64 cores still fit beside a 58-bit block id in one sort key; 65
    take the two-key sort."""
    case = dataclasses.replace(case, n_cores=n_cores)
    trace, arch = case.trace(), case.arch()
    assert_private_equal(
        filter_private(trace, arch), filter_private_reference(trace, arch)
    )


#: One-set, one-way L1s over two-set, one-way L2s, on two cores.
_TINY = dict(n_cores=2, private_geometry=PRIVATE_GEOMETRIES[1])

#: Core 0 stores to block 0, then its read of block 2 spills block 0
#: from L1 into its L2 and evicts it dirty from there; the directory
#: drops core 0 (the L2's eviction notice), so core 1's store to block
#: 0 invalidates nobody.
NOTICE_BEFORE_STORE = Case(
    trace_blocks=(0, 2, 0), llc_blocks=(0, 2, 0),
    writes=(True, False, True), threads=(0, 0, 1), gaps=(0, 0, 0), **_TINY,
)

#: Core 0 stores to block 0, spills it dirty into its L2 (block 1 takes
#: the L1) and reads it back clean; core 1's store invalidates both
#: copies, and only the L2's is dirty.
DIRTY_IN_L2_ONLY = Case(
    trace_blocks=(0, 1, 0, 0), llc_blocks=(0, 1, 0, 0),
    writes=(True, False, False, True), threads=(0, 0, 0, 1),
    gaps=(0, 0, 0, 0), **_TINY,
)


#: Core 0 reads block 0 and writes it back to back, so the write folds
#: into the read; block 2 then evicts block 0 from the L1 and the L2,
#: and its write-back must reach the LLC.
FOLDED_WRITE = Case(
    trace_blocks=(0, 0, 2), llc_blocks=(0, 0, 2),
    writes=(False, True, False), threads=(0, 0, 0), gaps=(0, 0, 0), **_TINY,
)

#: Core 0's two reads of block 0 are consecutive in its lane, but core
#: 1's store between them invalidates core 0's copy: block 0 is shared,
#: never folds, and the second read misses.
SHARED_REPEAT = Case(
    trace_blocks=(0, 0, 0), llc_blocks=(0, 0, 0),
    writes=(False, True, False), threads=(0, 1, 0), gaps=(0, 0, 0), **_TINY,
)

#: Core 0's miss on block 0 starts a run of three repeats, the last a
#: write, interleaved with core 1's own fold on block 1; block 2 then
#: evicts core 0's block 0, dirty.
REPEAT_RUN = Case(
    trace_blocks=(0, 1, 0, 0, 1, 0, 2), llc_blocks=(0, 1, 0, 0, 1, 0, 2),
    writes=(False, False, False, False, True, True, False),
    threads=(0, 1, 0, 0, 1, 0, 0), gaps=(0,) * 7, **_TINY,
)


def test_folded_write_reaches_the_llc():
    trace, arch = FOLDED_WRITE.trace(), FOLDED_WRITE.arch()
    want = filter_private_reference(trace, arch)
    assert (0, True) in zip(want.stream.blocks.tolist(), want.stream.writes.tolist())
    assert_private_equal(filter_private(trace, arch), want)


def test_shared_repeat_does_not_fold():
    trace, arch = SHARED_REPEAT.trace(), SHARED_REPEAT.arch()
    want = filter_private_reference(trace, arch)
    assert want.per_core[0].l1_misses == 2
    assert_private_equal(filter_private(trace, arch), want)


def test_run_of_repeats_folds_into_its_miss():
    trace, arch = REPEAT_RUN.trace(), REPEAT_RUN.arch()
    want = filter_private_reference(trace, arch)
    assert (want.per_core[0].l1_hits, want.per_core[0].l1_misses) == (3, 2)
    stream = want.stream
    assert list(zip(stream.blocks.tolist(), stream.writes.tolist(),
                    stream.cores.tolist())) == [
        (0, False, 0), (1, False, 1), (0, True, 0), (2, False, 0)]
    assert_private_equal(filter_private(trace, arch), want)


def test_l2_eviction_notice_reaches_the_directory():
    trace, arch = NOTICE_BEFORE_STORE.trace(), NOTICE_BEFORE_STORE.arch()
    want = filter_private_reference(trace, arch)
    assert want.directory.invalidations_sent == 0
    assert_private_equal(filter_private(trace, arch), want)


def test_invalidation_writes_back_the_dirty_l2_copy():
    trace, arch = DIRTY_IN_L2_ONLY.trace(), DIRTY_IN_L2_ONLY.arch()
    want = filter_private_reference(trace, arch)
    last = (want.stream.blocks[-1], want.stream.writes[-1], want.stream.cores[-1])
    assert last == (0, True, 0)
    assert_private_equal(filter_private(trace, arch), want)


@pytest.mark.parametrize("policy", ("lru", "srrip", "random"))
@given(case=cases())
@example(case=UINT64_EXTREMES)
@example(case=EMPTY)
@settings(max_examples=150, deadline=None)
def test_llc_replay_matches_reference(policy, case):
    stream = case.stream()
    assert simulate_llc(stream, policy=policy, **case.geometry) == (
        simulate_llc_reference(stream, policy=policy, **case.geometry)
    )


#: Techniques whose hooks change nothing a replay counts.  The leveler's
#: period outlasts the stream, so it never rotates.
IDENTITY_TECHNIQUES = {
    "baseline": lambda n: Technique(),
    "ewt": lambda n: EarlyWriteTermination(),
    "ratio-1": lambda n: CompressedLLC.uniform(64),
    "idle-leveling": lambda n: SetRotationLeveling(period=n + 1),
}


@pytest.mark.parametrize("technique", tuple(IDENTITY_TECHNIQUES))
@given(case=cases())
@example(case=UINT64_EXTREMES)
@example(case=EMPTY)
@settings(max_examples=100, deadline=None)
def test_identity_technique_matches_plain_replay(technique, case):
    """Every :class:`~repro.sim.llc.LLCCounts` field, per-core MLP
    included, and every write at full size."""
    stream = case.stream()
    outcome = replay_with_technique(
        stream, IDENTITY_TECHNIQUES[technique](len(stream)), **case.geometry
    )
    assert outcome.counts == simulate_llc(stream, **case.geometry)
    assert outcome.bypassed_writes == 0
    assert outcome.compressed_writes == 0
    assert outcome.uncompressed_writes == outcome.wear.total_writes
    assert outcome.write_bytes == outcome.wear.total_writes * 64


@given(case=cases())
@example(case=UINT64_EXTREMES)
@example(case=EMPTY)
@settings(max_examples=100, deadline=None)
def test_wear_replay_matches_identity_replay(case):
    stream = case.stream()
    geometry = case.geometry
    wear = replay_with_wear(
        stream,
        geometry["capacity_bytes"],
        geometry["associativity"],
        geometry["block_bytes"],
    )
    for make in IDENTITY_TECHNIQUES.values():
        outcome = replay_with_technique(stream, make(len(stream)), **geometry)
        assert_wear_equal(outcome.wear, wear)


#: Technique columns add a six-set shape first: every real geometry has
#: a power-of-two set count, where uint64 and Python-int arithmetic on
#: ``block + offset`` agree, so only a shape like this tells them apart.
TECHNIQUE_GEOMETRIES = ((24, 4),) + LLC_GEOMETRIES


def _sizes(seed: int):
    """A seeded, non-uniform line size over ``SIZE_CLASSES``, for an
    array of blocks (the top three bits of the low 64 of the product)."""
    classes = np.array(SIZE_CLASSES, dtype=np.int64)

    def sizes_fn(blocks: np.ndarray) -> np.ndarray:
        mixed = (blocks ^ np.uint64(seed)) * np.uint64(0x9E3779B97F4A7C15)
        return classes[mixed >> np.uint64(61)]

    return sizes_fn


class DeclaredOnly(Technique):
    """Compacted ways that rotate, declared on a bare :class:`Technique`
    rather than inherited from :class:`CompressedLLC`: what a replay
    reads is the declarations, not the class."""

    name = "declared"
    leveling_period = 7
    tag_factor = 2

    def line_sizes(self, blocks, block_bytes):
        return _sizes(7)(blocks)


#: Bypass filters from one block to more than any case holds; rotation
#: every 1, 3 and 17 data writes; compacted ways at tag factors 1, 2
#: and 4, still and rotating; and the declarations alone.
TECHNIQUES = {
    **{f"bypass-{blocks}": lambda blocks=blocks: ReuseWriteBypass(blocks)
       for blocks in (1, 2, 8, 8192)},
    **{f"leveling-{period}": lambda period=period: SetRotationLeveling(period)
       for period in (1, 3, 17)},
    **{f"compressed-x{factor}": lambda factor=factor: CompressedLLC(
        _sizes(factor), tag_factor=factor) for factor in (1, 2, 4)},
    **{f"compressed-x{factor}-leveling-5": lambda factor=factor: CompressedLLC(
        _sizes(factor), tag_factor=factor, leveling_period=5)
       for factor in (1, 2, 4)},
    "declared": DeclaredOnly,
}


@pytest.mark.parametrize("technique", tuple(TECHNIQUES))
@given(case=cases(geometries=TECHNIQUE_GEOMETRIES))
@example(case=UINT64_EXTREMES)
@example(case=SIX_SETS_TOP)
@example(case=EMPTY)
@settings(max_examples=60, deadline=None)
def test_technique_replay_matches_reference(technique, case):
    """Every :class:`~repro.techniques.replay.TechniqueOutcome` field —
    counts with per-core MLP, wear, bypassed writes, write bytes, the
    compressed/uncompressed split, resident lines — and the public
    counters of a fresh technique per path."""
    stream = case.stream()
    production, reference = TECHNIQUES[technique](), TECHNIQUES[technique]()
    assert_outcome_equal(
        replay_with_technique(stream, production, **case.geometry),
        replay_with_technique_reference(stream, reference, **case.geometry),
    )
    for counter in ("rotations", "bypassed"):
        assert getattr(production, counter, None) == getattr(
            reference, counter, None
        )


@pytest.mark.parametrize("bad", (0, 65))
@pytest.mark.parametrize("source", ("size_fn", "uniform"))
@given(case=cases(geometries=TECHNIQUE_GEOMETRIES), lane=st.integers(0, 2))
@example(case=SIX_SETS_TOP, lane=0)
@settings(max_examples=30, deadline=None)
def test_out_of_range_size_fails_alike(bad, source, case, lane):
    """Lines sized ``bad`` raise the same :class:`CompressionError` on
    both paths, naming the first offending block in stream order."""
    sizes = _sizes(lane)
    offending = {b for b in case.llc_blocks if b % 3 == lane}
    offending = np.array(sorted(offending | set(case.llc_blocks[-1:])),
                         dtype=np.uint64)

    def make():
        if source == "uniform":
            return CompressedLLC.uniform(bad, leveling_period=2)
        return CompressedLLC(
            lambda blocks: np.where(np.isin(blocks, offending), bad,
                                    sizes(blocks)),
            leveling_period=2,
        )

    failures = []
    for replay in (replay_with_technique, replay_with_technique_reference):
        try:
            replay(case.stream(), make(), **case.geometry)
        except CompressionError as error:
            failures.append(str(error))
    assert len(failures) == (2 if case.llc_blocks else 0)
    assert len(set(failures)) <= 1


@given(case=cases(geometries=TECHNIQUE_GEOMETRIES))
@example(case=UINT64_EXTREMES)
@example(case=EMPTY)
@settings(max_examples=100, deadline=None)
def test_wear_replay_matches_reference(case):
    geometry = case.geometry
    stream = case.stream()
    assert_wear_equal(
        replay_with_wear(
            stream,
            geometry["capacity_bytes"],
            geometry["associativity"],
            geometry["block_bytes"],
        ),
        replay_with_technique_reference(stream, Technique(), **geometry).wear,
    )


@pytest.fixture(scope="module")
def table5_context():
    return ExperimentContext(scale=0.05)


@pytest.mark.parametrize("workload", all_benchmarks())
def test_table5_workload_matches_reference(table5_context, workload):
    """Table V's trace at scale 0.05 through both levels on the paper's
    fixed-capacity LLC."""
    arch = table5_context.arch
    trace = table5_context.trace(workload)
    private = filter_private(trace, arch)
    assert_private_equal(private, filter_private_reference(trace, arch))
    geometry = dict(
        capacity_bytes=sram_baseline().capacity_bytes,
        associativity=arch.llc_associativity,
        block_bytes=arch.llc_block_bytes,
        n_cores=arch.n_cores,
        mlp_window=arch.mlp_window_instructions,
        mlp_ceiling=arch.max_mlp,
        policy=arch.llc_replacement,
    )
    assert simulate_llc(private.stream, **geometry) == simulate_llc_reference(
        private.stream, **geometry
    )


def test_coresweep_32_core_trace_matches_reference(table5_context):
    """Coresweep's ``is`` at 32 cores (four times the scale-0.05 length,
    one thread per core): shared blocks on many cores at once."""
    arch = gainestown(n_cores=32)
    trace = table5_context.trace(
        "is", n_accesses=4 * table5_context.n_accesses("is"), n_threads=32
    )
    assert_private_equal(
        filter_private(trace, arch), filter_private_reference(trace, arch)
    )
