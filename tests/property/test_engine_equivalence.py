"""Property tests: the vector engine is bit-identical to the reference.

The vector engine (:mod:`repro.sim.engine`) re-implements the private
hierarchy as a batched flat loop and replays the whole LLC trace as
numpy array rounds; its correctness contract is *exact* event-count
equality with the dict-of-caches reference path on every stream.  These
tests drive both engines over randomized traces — single- and
multi-threaded (exercising the directory's invalidate / downgrade /
sharing-writeback paths), with and without the next-line prefetcher,
through memmap-backed spilled traces, and with LLC block ids from both
ends of the uint64 range — against deliberately tiny cache geometries
so evictions and coherence conflicts are frequent.
"""

import dataclasses

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro import units
from repro.sim.config import ArchitectureConfig, CacheLevelConfig, gainestown
from repro.sim.hierarchy import LLCStream, filter_private
from repro.sim.llc import simulate_llc
from repro.trace.access import BLOCK_BITS
from repro.trace.stream import Trace


def _tiny_arch(n_cores=1, prefetch=False) -> ArchitectureConfig:
    """A deliberately cramped hierarchy: 2-way 256 B L1, 2-way 512 B L2.

    With addresses drawn from a few dozen blocks this evicts and
    invalidates constantly, covering the paths a realistic geometry
    would leave cold at hypothesis-sized trace lengths.
    """
    return dataclasses.replace(
        gainestown(n_cores=n_cores),
        l1d=CacheLevelConfig(256, 2),
        l2=CacheLevelConfig(512, 2),
        l2_next_line_prefetch=prefetch,
    )


def _trace(accesses, n_threads) -> Trace:
    n = len(accesses)
    return Trace(
        addresses=np.array(
            [(a << BLOCK_BITS) | (a % 7) for a, _, _, _ in accesses],
            dtype=np.uint64,
        ),
        writes=np.array([w for _, w, _, _ in accesses], dtype=bool),
        thread_ids=np.array(
            [t % n_threads for _, _, t, _ in accesses], dtype=np.uint16
        ),
        gaps=np.array([g for _, _, _, g in accesses], dtype=np.uint32),
        name="equiv",
    )


ACCESSES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=47),   # block
        st.booleans(),                            # write
        st.integers(min_value=0, max_value=7),    # thread
        st.integers(min_value=0, max_value=20),   # gap
    ),
    min_size=1,
    max_size=300,
)


def assert_private_equal(vector, ref):
    np.testing.assert_array_equal(vector.stream.blocks, ref.stream.blocks)
    np.testing.assert_array_equal(vector.stream.writes, ref.stream.writes)
    np.testing.assert_array_equal(vector.stream.cores, ref.stream.cores)
    np.testing.assert_array_equal(
        vector.stream.instr_positions, ref.stream.instr_positions
    )
    assert vector.per_core == ref.per_core
    assert vector.directory == ref.directory
    assert vector.n_threads == ref.n_threads


@given(accesses=ACCESSES)
@settings(max_examples=60, deadline=None)
def test_private_filter_single_thread_equivalence(accesses):
    trace = _trace(accesses, n_threads=1)
    arch = _tiny_arch(n_cores=1)
    assert_private_equal(
        filter_private(trace, arch, engine="vector"),
        filter_private(trace, arch, engine="reference"),
    )


@given(accesses=ACCESSES, n_threads=st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_private_filter_coherence_equivalence(accesses, n_threads):
    """Multi-threaded traces: directory fills, invalidations, downgrades
    and coherence writebacks must match event for event."""
    trace = _trace(accesses, n_threads=n_threads)
    arch = _tiny_arch(n_cores=4)
    vector = filter_private(trace, arch, engine="vector")
    ref = filter_private(trace, arch, engine="reference")
    assert_private_equal(vector, ref)


@given(accesses=ACCESSES, n_threads=st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_private_filter_prefetch_equivalence(accesses, n_threads):
    """The L2 next-line prefetcher adds fill/eviction traffic on a
    second code path; it must match too."""
    trace = _trace(accesses, n_threads=n_threads)
    arch = _tiny_arch(n_cores=2, prefetch=True)
    assert_private_equal(
        filter_private(trace, arch, engine="vector"),
        filter_private(trace, arch, engine="reference"),
    )


#: LLC block ids: small ones (0 is the tag every empty way holds) and
#: ones from the top of the uint64 range, up to 2**64 - 1.
LLC_BLOCKS = st.one_of(
    st.integers(min_value=0, max_value=511),
    st.integers(min_value=(1 << 63) - 64, max_value=(1 << 63) + 64),
    st.integers(min_value=(1 << 64) - 128, max_value=(1 << 64) - 1),
)


@given(
    accesses=st.lists(
        st.tuples(
            LLC_BLOCKS,
            st.booleans(),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=400,
    ),
    geometry=st.sampled_from(((16, 1), (16, 16), (64, 16), (256, 16))),
)
@settings(max_examples=60, deadline=None)
def test_llc_replay_equivalence(accesses, geometry):
    capacity_blocks, associativity = geometry
    stream = LLCStream(
        blocks=np.array([a for a, _, _ in accesses], dtype=np.uint64),
        writes=np.array([w for _, w, _ in accesses], dtype=bool),
        cores=np.array([c for _, _, c in accesses], dtype=np.uint16),
        instr_positions=np.cumsum(
            np.ones(len(accesses), dtype=np.uint64)
        ),
    )
    kwargs = dict(
        capacity_bytes=capacity_blocks * 64,
        associativity=associativity,
        block_bytes=64,
        n_cores=4,
    )
    vector = simulate_llc(stream, engine="vector", **kwargs)
    ref = simulate_llc(stream, engine="reference", **kwargs)
    assert vector == ref


@given(
    accesses=ACCESSES,
    n_threads=st.integers(min_value=1, max_value=4),
    prefetch=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_full_path_equivalence(accesses, n_threads, prefetch):
    """Whole pipeline under each engine: the private filter (coherence
    invalidates, prefetch fills) feeds the LLC replay, and both engines
    must agree on the final counts."""
    trace = _trace(accesses, n_threads=n_threads)
    arch = _tiny_arch(n_cores=2, prefetch=prefetch)
    kwargs = dict(
        capacity_bytes=16 * 64, associativity=4, block_bytes=64, n_cores=2
    )
    results = {}
    for engine in ("reference", "vector"):
        private = filter_private(trace, arch, engine=engine)
        results[engine] = simulate_llc(private.stream, engine=engine, **kwargs)
    assert results["vector"] == results["reference"]


@given(accesses=ACCESSES, n_threads=st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_memmap_trace_equivalence(accesses, n_threads):
    """A spilled, memmap-backed trace must replay exactly like its
    in-memory original under every engine."""
    import tempfile

    trace = _trace(accesses, n_threads=n_threads)
    arch = _tiny_arch(n_cores=2)
    kwargs = dict(
        capacity_bytes=16 * 64, associativity=4, block_bytes=64, n_cores=2
    )
    baseline = filter_private(trace, arch, engine="reference")
    ref_counts = simulate_llc(baseline.stream, engine="reference", **kwargs)
    with tempfile.TemporaryDirectory(prefix="repro-equiv-") as spill_dir:
        mapped = trace.spill(spill_dir).load()
        private = filter_private(mapped, arch, engine="vector")
        assert_private_equal(private, baseline)
        assert simulate_llc(private.stream, engine="vector", **kwargs) == ref_counts


def test_unknown_engine_rejected():
    import pytest

    from repro.errors import ConfigurationError
    from repro.sim.engine import resolve_engine

    with pytest.raises(ConfigurationError):
        resolve_engine("warp")


def test_engine_env_var_controls_default(monkeypatch):
    from repro.sim.engine import ENGINE_ENV, resolve_engine

    monkeypatch.setenv(ENGINE_ENV, "reference")
    assert resolve_engine() == "reference"
    assert resolve_engine("fast") == "vector"
    monkeypatch.setenv(ENGINE_ENV, "fast")
    assert resolve_engine() == "vector"
    monkeypatch.setenv(ENGINE_ENV, "vector")
    assert resolve_engine() == "vector"
    monkeypatch.delenv(ENGINE_ENV)
    assert resolve_engine() == "vector"
