"""Property-based tests for simulator-level invariants."""

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro import units
from repro.prism.reuse import reuse_profile
from repro.sim.cache import SetAssocCache
from repro.sim.llc import simulate_llc
from repro.techniques.hybrid import HybridLLC
from tests.streams import llc_stream


STREAMS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=511), st.booleans()),
    min_size=1,
    max_size=400,
)


@given(accesses=STREAMS)
@settings(max_examples=50, deadline=None)
def test_llc_counts_partition(accesses):
    blocks = [a for a, _ in accesses]
    writes = [w for _, w in accesses]
    counts = simulate_llc(llc_stream(blocks, writes), 64 * units.KB)
    assert counts.read_hits + counts.read_misses == counts.read_lookups
    assert counts.write_hits + counts.write_misses == counts.write_accesses
    assert counts.read_lookups + counts.write_accesses == len(accesses)
    assert counts.dirty_evictions <= counts.data_writes


@given(accesses=STREAMS)
@settings(max_examples=30, deadline=None)
def test_llc_misses_monotone_in_capacity(accesses):
    """Doubling LLC capacity (with associativity growing in step, so
    inclusion holds) never increases demand misses."""
    blocks = [a for a, _ in accesses]
    writes = [w for _, w in accesses]
    small = simulate_llc(llc_stream(blocks, writes), 32 * 64,
                         associativity=32, block_bytes=64)
    large = simulate_llc(llc_stream(blocks, writes), 64 * 64,
                         associativity=64, block_bytes=64)
    assert large.read_misses <= small.read_misses


@given(accesses=STREAMS)
@settings(max_examples=30, deadline=None)
def test_mrc_agrees_with_fully_associative_sim(accesses):
    """The reuse-distance MRC equals the measured fully-associative LRU
    miss ratio at any capacity — for all streams, not just examples."""
    blocks = np.asarray([a for a, _ in accesses], dtype=np.uint64)
    profile = reuse_profile(blocks)
    capacity = 16
    cache = SetAssocCache(capacity * 64, 64, capacity)  # one set
    misses = sum(not cache.access(int(b), False).hit for b in blocks)
    assert profile.miss_ratio(capacity) * len(blocks) == misses


@given(accesses=STREAMS, sram_ways=st.integers(min_value=1, max_value=15))
@settings(max_examples=30, deadline=None)
def test_hybrid_conservation(accesses, sram_ways):
    """Hybrid counts conserve: every access is a read hit, read miss or
    write; every miss programs exactly one NVM frame."""
    hybrid = HybridLLC(64 * units.KB, 64, 16, sram_ways=sram_ways)
    for block, is_write in accesses:
        hybrid.access(block, is_write)
    counts = hybrid.counts
    assert (
        counts.read_hits + counts.read_misses + counts.write_accesses
        == len(accesses)
    )
    assert counts.nvm_writes == counts.read_misses
    assert counts.sram_writes == counts.write_accesses
    assert 0.0 <= counts.nvm_write_share <= 1.0


@given(accesses=STREAMS)
@settings(max_examples=30, deadline=None)
def test_wear_conservation(accesses):
    """Set-attributed wear equals total data-array writes."""
    from repro.endurance.wear import replay_with_wear

    blocks = [a for a, _ in accesses]
    writes = [w for _, w in accesses]
    wear = replay_with_wear(llc_stream(blocks, writes), 64 * units.KB)
    assert wear.set_writes.sum() == wear.total_writes
    assert wear.hottest_line_writes <= wear.total_writes
