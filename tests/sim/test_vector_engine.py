"""Unit tests for the whole-trace vector LLC rounds.

Agreement with the reference loop lives in
``tests/property/test_replay_conformance.py``; these tests pin the
rounds' own edges: empty streams, round 0 only, block ids at both ends
of the uint64 range, one random stream far longer than the generator's,
and geometry checks.
"""

import numpy as np
import pytest

from repro.sim.engine import simulate_llc_vector
from repro.sim.llc import simulate_llc_reference
from tests.streams import llc_stream

KWARGS = dict(capacity_bytes=64 * 64, associativity=8, block_bytes=64, n_cores=4)


class TestEdges:
    def test_empty_stream(self):
        counts = simulate_llc_vector(llc_stream([]), **KWARGS)
        assert counts.read_lookups == 0
        assert counts.write_misses == 0
        assert counts.per_core_mlp == [1.0] * 4

    def test_single_access(self):
        counts = simulate_llc_vector(llc_stream([5], writes=[True]), **KWARGS)
        assert counts.write_misses == 1
        assert counts.write_hits == 0

    def test_all_unique_blocks_all_miss(self):
        # Round 0 only: every block appears once, nothing can hit.
        counts = simulate_llc_vector(llc_stream(range(200)), **KWARGS)
        assert counts.read_misses == 200
        assert counts.read_hits == 0

    def test_uint64_extremes_are_ordinary_tags(self):
        """No tag value is reserved for empty ways: block 0 (the tag an
        empty way holds) and ids at or above 2**63, up to 2**64 - 1,
        hit and miss like any other.  Block 8 fills way 0 of set 0
        first, so the write to block 0 meets empty ways tagged 0 and
        must still miss."""
        huge = llc_stream(
            [(1 << 63) + 3, 8, 0, 5, (1 << 64) - 1, 5, 0, (1 << 63) + 3, 0],
            writes=[False, False, True, False, False, False, False, True, False],
        )
        counts = simulate_llc_vector(huge, **KWARGS)
        assert counts.write_misses == 1  # the first write to block 0
        assert counts.read_hits == 3  # the second 5 and both re-reads of 0
        assert counts.write_hits == 1  # the write to (1 << 63) + 3

    def test_matches_reference_on_random_stream(self):
        rng = np.random.default_rng(11)
        n = 4000
        stream = llc_stream(
            rng.integers(0, 600, n),
            writes=rng.random(n) < 0.3,
            cores=rng.integers(0, 4, n),
            positions=np.arange(1, n + 1),
        )
        assert simulate_llc_vector(stream, **KWARGS) == simulate_llc_reference(
            stream, **KWARGS
        )

    def test_rejects_bad_geometry(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            simulate_llc_vector(llc_stream([1]), capacity_bytes=100, block_bytes=64)
