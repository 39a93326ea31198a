"""Unit tests for the whole-trace vector LLC engine.

The randomized bit-identity contract lives in
``tests/property/test_engine_equivalence.py``; these tests pin the
vector engine's edges — empty streams, block ids at both ends of the
uint64 range, non-LRU routing, the provenance counters — and one
realistic workload replayed end to end under both engines.
"""

import numpy as np
import pytest

from repro.obs.metrics import scoped_registry
from repro.sim.engine import simulate_llc_vector
from repro.sim.hierarchy import LLCStream, filter_private
from repro.sim.llc import simulate_llc
from repro.trace.stream import Trace


def _stream(blocks, writes=None, cores=None) -> LLCStream:
    n = len(blocks)
    return LLCStream(
        blocks=np.asarray(blocks, dtype=np.uint64),
        writes=(
            np.zeros(n, dtype=bool)
            if writes is None
            else np.asarray(writes, dtype=bool)
        ),
        cores=(
            np.zeros(n, dtype=np.uint16)
            if cores is None
            else np.asarray(cores, dtype=np.uint16)
        ),
        instr_positions=np.cumsum(np.ones(n, dtype=np.uint64)),
    )


def _random_stream(n=4000, block_span=600, seed=11) -> LLCStream:
    rng = np.random.default_rng(seed)
    return _stream(
        rng.integers(0, block_span, n),
        writes=rng.random(n) < 0.3,
        cores=rng.integers(0, 4, n),
    )


KWARGS = dict(capacity_bytes=64 * 64, associativity=8, block_bytes=64, n_cores=4)


class TestEdges:
    def test_empty_stream(self):
        counts = simulate_llc_vector(_stream([]), **KWARGS)
        assert counts == simulate_llc(_stream([]), engine="reference", **KWARGS)
        assert counts.read_lookups == 0
        assert counts.write_misses == 0

    def test_single_access(self):
        counts = simulate_llc_vector(_stream([5], writes=[True]), **KWARGS)
        assert counts.write_misses == 1
        assert counts.write_hits == 0

    def test_all_unique_blocks_all_miss(self):
        # Round 0 only: every block appears once, nothing can hit.
        counts = simulate_llc_vector(_stream(range(200)), **KWARGS)
        assert counts.read_misses == 200
        assert counts.read_hits == 0

    def test_uint64_extremes_match_reference(self):
        """No tag value is reserved for empty ways: block 0 (the tag an
        empty way holds) and ids at or above 2**63, up to 2**64 - 1,
        replay exactly like the reference.  Block 8 fills way 0 of set
        0 first, so the write to block 0 meets empty ways tagged 0 and
        must still miss."""
        huge = _stream(
            [(1 << 63) + 3, 8, 0, 5, (1 << 64) - 1, 5, 0, (1 << 63) + 3, 0],
            writes=[False, False, True, False, False, False, False, True, False],
        )
        counts = simulate_llc_vector(huge, **KWARGS)
        assert counts == simulate_llc(huge, engine="reference", **KWARGS)
        assert counts.write_misses == 1  # the first write to block 0
        assert counts.read_hits == 3  # the second 5 and both re-reads of 0
        assert counts.write_hits == 1  # the write to (1 << 63) + 3

    def test_matches_reference_on_random_stream(self):
        stream = _random_stream()
        assert simulate_llc_vector(stream, **KWARGS) == simulate_llc(
            stream, engine="reference", **KWARGS
        )

    def test_rejects_bad_geometry(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            simulate_llc_vector(_stream([1]), capacity_bytes=100, block_bytes=64)


class TestDispatch:
    def test_non_lru_policy_routes_to_reference(self):
        """The vector engine implements LRU only; other policies must
        silently take the reference path and tag it as such."""
        stream = _random_stream(n=800)
        with scoped_registry() as registry:
            counts = simulate_llc(stream, policy="srrip", engine="vector", **KWARGS)
        assert registry.counters.get("sim.engine.reference.llc_replays") == 1
        assert "sim.engine.vector.llc_replays" not in registry.counters
        assert counts == simulate_llc(
            stream, policy="srrip", engine="reference", **KWARGS
        )

    def test_llc_replay_counter_tags_vector(self):
        with scoped_registry() as registry:
            simulate_llc(_random_stream(n=500), engine="vector", **KWARGS)
        assert registry.counters.get("sim.engine.vector.llc_replays") == 1

    def test_private_replay_counter_tags_vector(self):
        """The private hierarchy has no vector implementation — the
        batched loop serves it — but provenance records the engine the
        caller resolved."""
        rng = np.random.default_rng(2)
        n = 400
        trace = Trace(
            addresses=rng.integers(0, 1 << 16, n).astype(np.uint64),
            writes=rng.random(n) < 0.3,
            thread_ids=np.zeros(n, dtype=np.uint16),
            gaps=rng.integers(0, 4, n).astype(np.uint32),
            name="prov",
        )
        from repro.sim.config import gainestown

        arch = gainestown()
        with scoped_registry() as registry:
            vector = filter_private(trace, arch, engine="vector")
        assert registry.counters.get("sim.engine.vector.private_replays") == 1
        reference = filter_private(trace, arch, engine="reference")
        np.testing.assert_array_equal(vector.stream.blocks, reference.stream.blocks)
        assert vector.per_core == reference.per_core


def test_default_engine_matches_reference_on_bzip2():
    """A realistic workload through the private filter and the LLC: the
    default engine must reproduce the reference stream and counts."""
    from repro.nvsim.published import sram_baseline
    from repro.sim.config import gainestown
    from repro.workloads.generators import generate_trace

    arch = gainestown()
    trace = generate_trace("bzip2", n_accesses=40_000)
    kwargs = dict(
        capacity_bytes=sram_baseline().capacity_bytes,
        associativity=arch.llc_associativity,
        block_bytes=arch.llc_block_bytes,
        n_cores=arch.n_cores,
        mlp_window=arch.mlp_window_instructions,
        mlp_ceiling=arch.max_mlp,
    )
    default = filter_private(trace, arch)
    reference = filter_private(trace, arch, engine="reference")
    for column in ("blocks", "writes", "cores", "instr_positions"):
        np.testing.assert_array_equal(
            getattr(default.stream, column), getattr(reference.stream, column)
        )
    assert default.per_core == reference.per_core
    assert default.directory == reference.directory
    assert simulate_llc(default.stream, **kwargs) == simulate_llc(
        reference.stream, engine="reference", **kwargs
    )
