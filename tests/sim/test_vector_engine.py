"""Unit tests for the whole-trace vector LLC rounds.

Agreement with the reference loop lives in
``tests/property/test_replay_conformance.py``; these tests pin the
rounds' own edges: empty streams, round 0 only, block ids at both ends
of the uint64 range, one random stream far longer than the generator's,
and geometry checks.  ``TestLRURounds`` pins :func:`lru_rounds` itself,
sets it settles and sets it replays in one call, against a per-set
``OrderedDict`` LRU.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.sim.engine import lru_rounds, simulate_llc_vector
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



def ordered_dict_lru(set_idx, tags, writes, n_sets, associativity):
    """``(hit, evict, victim)`` lists from one ``OrderedDict`` per set."""
    sets = [OrderedDict() for _ in range(n_sets)]
    hit, evict, victim = [], [], []
    for row, tag, is_write in zip(set_idx.tolist(), tags.tolist(), writes.tolist()):
        lines = sets[row]
        dirty_victim = None
        present = tag in lines
        if present:
            lines.move_to_end(tag)
            lines[tag] = lines[tag] or is_write
        else:
            if len(lines) >= associativity:
                old, dirty = lines.popitem(last=False)
                if dirty:
                    dirty_victim = old
            lines[tag] = is_write
        hit.append(present)
        evict.append(dirty_victim is not None)
        victim.append(dirty_victim)
    return hit, evict, victim


def mixed_stream(seed, associativity, top_tags):
    """Eight sets in one stream: some settle, some overflow.

    Set 0 starts with the smallest tag among its ``associativity``
    tags, set 1 holds exactly ``associativity + 1`` tags written in a
    cycle twice over (each of those accesses misses and evicts a dirty
    line), set 2 a single tag, sets 3 and 4 more tags than ways, and
    the rest up to ``associativity`` tags.  The smallest tag is 0, or
    with ``top_tags`` it is ``2**61``, and then every tag is at or above
    it, up to ``2**64 - 1``: no tag fits beside the three set bits in
    one uint64 key.  Each set's accesses keep their order and are
    shuffled among the other sets'.
    """
    rng = np.random.default_rng(seed)
    base = (1 << 64) - (1 << 12) if top_tags else 0

    def tag(row, t):
        if row == 0 and t == 0:
            return 1 << 61 if top_tags else 0
        return base + 16 * t + row % 2 * 8

    per_set = []
    for row in range(8):
        if row == 1:
            cycle = list(range(associativity + 1))
            picks = cycle * 2 + rng.choice(cycle, 20).tolist()
            per_set.append([(tag(row, t), True) for t in picks])
            continue
        distinct = {0: associativity, 2: 1, 3: 4 * associativity + 3,
                    4: 2 * associativity + 1}.get(
            row, int(rng.integers(1, associativity + 1)))
        picks = [0] + rng.integers(0, distinct, int(rng.integers(5, 60))).tolist()
        per_set.append([(tag(row, t), bool(rng.random() < 0.5)) for t in picks])
    rows = np.repeat(np.arange(8), [len(accesses) for accesses in per_set])
    rng.shuffle(rows)
    cursors = [iter(accesses) for accesses in per_set]
    set_idx, tags, writes = zip(
        *((row,) + next(cursors[row]) for row in rows.tolist())
    )
    return (
        np.array(set_idx, dtype=np.int64),
        np.array(tags, dtype=np.uint64),
        np.array(writes, dtype=bool),
    )


class TestLRURounds:
    @pytest.mark.parametrize("top_tags", (False, True))
    @pytest.mark.parametrize("associativity", (1, 2, 4))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_ordered_dict_lru(self, seed, associativity, top_tags):
        set_idx, tags, writes = mixed_stream(seed, associativity, top_tags)
        hit, evict, victim = lru_rounds(set_idx, tags, writes, 8, associativity)
        want_hit, want_evict, want_victim = ordered_dict_lru(
            set_idx, tags, writes, 8, associativity
        )
        assert hit.tolist() == want_hit
        assert evict.tolist() == want_evict
        assert victim[evict].tolist() == [v for v in want_victim if v is not None]
