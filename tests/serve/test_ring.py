"""Property tests for the consistent-hash ring (fleet routing).

The two properties the fleet design leans on:

- **near-uniform spread** — no shard owns a grossly outsized share of
  the digest space;
- **minimal remapping** — the consistent-hashing contract, checked
  *exactly*: adding a node only moves keys onto the new node (every
  other key keeps its owner), removing a node only moves that node's
  keys.  This is what lets a fleet grow or lose a shard without a
  global reshuffle.

Plus determinism (two rings from the same nodes agree everywhere —
required so a restarted router places every digest where its
predecessor did, and so a test can recompute the router's placement
in its own process) and the constructor's rejection of degenerate
inputs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve.ring import (
    DEFAULT_RING_REPLICAS,
    HashRing,
    VersionedRing,
    _point,
    moved_keys,
)

# Node names shaped like real shard URLs; keys shaped like hex digests.
nodes_strategy = st.lists(
    st.integers(min_value=0, max_value=9999).map(
        lambda port: f"http://127.0.0.1:{10_000 + port}"
    ),
    min_size=1, max_size=8, unique=True,
)
keys_strategy = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1).map(
        lambda value: f"{value:016x}"
    ),
    min_size=1, max_size=300, unique=True,
)


class TestLookupBasics:
    def test_single_node_owns_everything(self):
        ring = HashRing(["only"])
        assert all(
            ring.node_for(f"{i:x}") == "only" for i in range(50)
        )

    def test_empty_ring_rejected(self):
        with pytest.raises(ServeError):
            HashRing([])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ServeError):
            HashRing(["a", "b", "a"])

    def test_replicas_must_be_positive(self):
        with pytest.raises(ServeError):
            HashRing(["a"], replicas=0)

    def test_default_replicas(self):
        assert HashRing(["a"]).replicas == DEFAULT_RING_REPLICAS

    def test_without_unknown_node_rejected(self):
        with pytest.raises(ServeError):
            HashRing(["a"]).without_node("b")

    def test_len_and_contains(self):
        ring = HashRing(["a", "b"])
        assert len(ring) == 2
        assert "a" in ring and "c" not in ring

    def test_describe_is_json_ready(self):
        import json

        description = HashRing(["a", "b"], replicas=8).describe()
        assert json.loads(json.dumps(description)) == description
        assert description["points"] == 16


@settings(max_examples=50, deadline=None)
@given(nodes=nodes_strategy, keys=keys_strategy)
def test_determinism_across_instances(nodes, keys):
    """Two rings built from the same nodes place every key identically
    — the router and a client-side ring must agree cross-process."""
    first, second = HashRing(nodes), HashRing(list(nodes))
    for key in keys:
        assert first.node_for(key) == second.node_for(key)


@settings(max_examples=50, deadline=None)
@given(nodes=nodes_strategy, keys=keys_strategy)
def test_every_key_lands_on_a_member(nodes, keys):
    ring = HashRing(nodes)
    for key in keys:
        assert ring.node_for(key) in ring.nodes
    assert sum(ring.spread(keys).values()) == len(keys)


@settings(max_examples=30, deadline=None)
@given(
    nodes=st.lists(
        st.integers(min_value=0, max_value=9999).map(
            lambda port: f"http://127.0.0.1:{10_000 + port}"
        ),
        min_size=2, max_size=6, unique=True,
    ),
)
def test_near_uniform_spread(nodes):
    """With many virtual nodes, no shard owns a grossly outsized share.

    The bound is loose (4x the fair share at 64 replicas over 2000
    keys) — the property guards against a broken placement (one shard
    owning ~everything), not against statistical wobble.
    """
    keys = [f"{i:016x}" for i in range(2000)]
    spread = HashRing(nodes).spread(keys)
    fair = len(keys) / len(nodes)
    assert max(spread.values()) <= 4 * fair
    assert min(spread.values()) >= fair / 8


@settings(max_examples=40, deadline=None)
@given(nodes=nodes_strategy, keys=keys_strategy, port=st.integers(0, 9999))
def test_join_moves_keys_only_to_the_new_node(nodes, keys, port):
    """The exact minimal-remapping contract on join: a key either keeps
    its owner or moves to the joining node — never to a third shard."""
    newcomer = f"http://10.0.0.1:{10_000 + port}"
    before = HashRing(nodes)
    after = before.with_node(newcomer)
    moved = 0
    for key in keys:
        old, new = before.node_for(key), after.node_for(key)
        if old != new:
            assert new == newcomer, (
                f"key {key} moved {old} -> {new}, not to the joiner"
            )
            moved += 1
    # Sanity ceiling: far fewer than all keys move (expected share is
    # 1/(N+1); allow generous slack for small samples).
    if len(keys) >= 100:
        assert moved <= 0.75 * len(keys)


@settings(max_examples=40, deadline=None)
@given(nodes=st.lists(
    st.integers(min_value=0, max_value=9999).map(
        lambda port: f"http://127.0.0.1:{10_000 + port}"
    ),
    min_size=2, max_size=8, unique=True,
), keys=keys_strategy)
def test_leave_moves_only_the_leavers_keys(nodes, keys):
    """On leave, every key owned by a surviving shard stays put."""
    ring = HashRing(nodes)
    leaver = nodes[0]
    shrunk = ring.without_node(leaver)
    for key in keys:
        old = ring.node_for(key)
        if old != leaver:
            assert shrunk.node_for(key) == old


@settings(max_examples=40, deadline=None)
@given(nodes=nodes_strategy, keys=keys_strategy, port=st.integers(0, 9999))
def test_join_then_leave_roundtrips(nodes, keys, port):
    newcomer = f"http://10.0.0.1:{10_000 + port}"
    ring = HashRing(nodes)
    roundtripped = ring.with_node(newcomer).without_node(newcomer)
    for key in keys:
        assert roundtripped.node_for(key) == ring.node_for(key)


def test_point_is_stable():
    """The circle placement is pinned: a silent hash change would remap
    every fleet's placement on upgrade."""
    assert _point("node#0") == _point("node#0")
    assert _point("a") != _point("b")
    assert 0 <= _point("anything") < 2**64


@settings(max_examples=40, deadline=None)
@given(nodes=nodes_strategy, port=st.integers(0, 9999))
def test_add_then_remove_is_identical_ring(nodes, port):
    """Add-then-remove round-trips to a structurally *identical* ring —
    not just same lookups on sampled keys: same points, same owners.
    Transient membership churn is therefore fully reversible."""
    newcomer = f"http://10.0.0.1:{10_000 + port}"
    ring = HashRing(nodes)
    assert ring.with_node(newcomer).without_node(newcomer) == ring


@settings(max_examples=40, deadline=None)
@given(nodes=st.lists(
    st.integers(min_value=0, max_value=9999).map(
        lambda port: f"http://127.0.0.1:{10_000 + port}"
    ),
    min_size=2, max_size=8, unique=True,
))
def test_removal_deletes_exactly_the_leavers_vnodes(nodes):
    """Shrink semantics at the vnode level: removing a shard deletes
    precisely its virtual nodes and no others — every survivor's point
    keeps its position and owner."""
    ring = HashRing(nodes)
    leaver = nodes[0]
    shrunk = ring.without_node(leaver)
    before = set(zip(ring._points, ring._owners))
    after = set(zip(shrunk._points, shrunk._owners))
    removed = before - after
    assert after <= before
    assert all(owner == leaver for _, owner in removed)
    assert len(removed) == ring.replicas


@settings(max_examples=40, deadline=None)
@given(nodes=st.lists(
    st.integers(min_value=0, max_value=9999).map(
        lambda port: f"http://127.0.0.1:{10_000 + port}"
    ),
    min_size=2, max_size=8, unique=True,
), keys=keys_strategy)
def test_moved_keys_only_involve_the_leaver(nodes, keys):
    """moved_keys() on a shrink reports exactly the departed shard's
    keys (minimal remap, observed through the diagnostic the router
    uses)."""
    ring = HashRing(nodes)
    leaver = nodes[0]
    shrunk = ring.without_node(leaver)
    moved = moved_keys(ring, shrunk, keys)
    assert set(moved) == {
        key for key in keys if ring.node_for(key) == leaver
    }


class TestVersionedRing:
    def test_version_increments_on_join_and_leave(self):
        ring = VersionedRing(["http://a:1", "http://b:2"])
        assert ring.version == 0
        grown = ring.join("http://c:3")
        assert grown.version == 1
        shrunk = grown.leave("http://c:3")
        assert shrunk.version == 2
        # The underlying ring round-trips even as the version advances.
        assert shrunk.ring == ring.ring
        assert ring.version == 0  # immutability: originals untouched

    def test_leave_last_node_rejected(self):
        ring = VersionedRing(["http://a:1"])
        with pytest.raises(ServeError):
            ring.leave("http://a:1")

    def test_lookup_and_describe_delegate(self):
        import json

        ring = VersionedRing(["http://a:1", "http://b:2"])
        assert ring.node_for("00" * 16) in ring.nodes
        assert len(ring) == 2
        assert "http://a:1" in ring
        described = json.loads(json.dumps(ring.describe()))
        assert described["version"] == 0
        assert sorted(described["nodes"]) == ["http://a:1", "http://b:2"]
