"""Replay conformance: every replay path against the reference loops.

The paper's conclusions are LLC event counts, so every path that
replays a stream must agree exactly with the two per-access reference
loops, :func:`~repro.sim.hierarchy.filter_private_reference` and
:func:`~repro.sim.llc.simulate_llc_reference`.  One adversarial
generator (:func:`cases`) feeds one matrix of relations:

- batched private filter == reference loop:
  ``test_private_filter_matches_reference``;
- ``simulate_llc`` == reference loop, per policy:
  ``test_llc_replay_matches_reference``;
- identity technique replay == ``simulate_llc``, every field:
  ``test_identity_technique_matches_plain_replay``;
- ``replay_with_wear`` == the identity replays' wear:
  ``test_wear_replay_matches_identity_replay``;
- spilled memmap trace == its in-memory original:
  ``test_spilled_trace_matches_in_memory``;
- every Table V workload at scale 0.05, filter and LLC, == reference:
  ``test_table5_workload_matches_reference``.

``tests/property/test_engine_equivalence.py`` reruns the first two
relations, and the filter feeding the LLC, with one scenario pinned
per test (``cases(threads=..., **pinned)``).

Under LRU ``simulate_llc`` replays as vector rounds; under any other
policy it must take the reference loop, so the policy axis also pins
the dispatch.  The generator covers empty streams, single-set thrash,
all-write and all-read streams, 1-way caches, associativity above the
distinct-block count, block ids 0 and up to 2**64 - 1, next-line
prefetch, and multi-core interleavings with true sharing.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.endurance.wear import replay_with_wear
from repro.experiments.common import ExperimentContext
from repro.nvsim.published import sram_baseline
from repro.sim.config import CacheLevelConfig, gainestown
from repro.sim.hierarchy import filter_private, filter_private_reference
from repro.sim.llc import simulate_llc, simulate_llc_reference
from repro.techniques.base import Technique
from repro.techniques.compression import CompressedLLC
from repro.techniques.early_write_termination import EarlyWriteTermination
from repro.techniques.replay import replay_with_technique
from repro.techniques.wear_leveling import SetRotationLeveling
from repro.trace.access import BLOCK_BITS
from repro.trace.stream import Trace
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
    prefetch: bool = False
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
            l2_next_line_prefetch=self.prefetch,
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
def cases(draw, threads=(1, 5), **pinned) -> Case:
    """Adversarial replay scenarios (see the module docstring).

    Sizes are drawn first so long streams and wide universes are as
    likely as short ones; each access is one integer whose bit fields
    pick the block, the write flag, the thread and the gap.  The thread
    count is drawn from the ``threads`` range; ``pinned`` fixes other
    :class:`Case` fields.
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
        prefetch=draw(st.booleans()),
        private_geometry=draw(st.sampled_from(PRIVATE_GEOMETRIES)),
        llc_geometry=draw(st.sampled_from(LLC_GEOMETRIES)),
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


@given(case=cases())
@example(case=UINT64_EXTREMES)
@example(case=EMPTY)
@settings(max_examples=250, deadline=None)
def test_private_filter_matches_reference(case):
    trace, arch = case.trace(), case.arch()
    assert_private_equal(
        filter_private(trace, arch), filter_private_reference(trace, arch)
    )


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


@given(case=cases())
@example(case=EMPTY)
@settings(max_examples=50, deadline=None)
def test_spilled_trace_matches_in_memory(case):
    trace, arch = case.trace(), case.arch()
    in_memory = filter_private(trace, arch)
    with tempfile.TemporaryDirectory(prefix="repro-conformance-") as spill_dir:
        spilled = filter_private(trace.spill(spill_dir).load(), arch)
    assert_private_equal(spilled, in_memory)
    assert simulate_llc(spilled.stream, **case.geometry) == simulate_llc(
        in_memory.stream, **case.geometry
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
