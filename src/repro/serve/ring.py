"""Consistent-hash ring routing spec digests across serve shards.

The fleet routes every job by its :func:`~repro.serve.jobs.spec_digest`
— the same identity the queue dedups on and the result store is keyed
by — so one digest always lands on one shard, and in-shard dedup
composes into fleet-wide dedup without any coordination.

The ring is the classic construction: each shard contributes
``replicas`` *virtual nodes* (points on a 64-bit circle, placed by
hashing ``"<shard>#<i>"``), and a key belongs to the first point at or
after its own hash, wrapping at the top.  Two properties make it the
right router (both pinned by property tests in
``tests/serve/test_ring.py``):

- **near-uniform spread** — with enough virtual nodes the arcs owned by
  each shard even out, so shards see balanced load without tracking it;
- **minimal remapping** — adding a shard only claims arcs from existing
  owners: every key either keeps its shard or moves to the new one
  (expected fraction moved ``1/(N+1)``), and removing a shard only
  moves that shard's keys.  A fleet can grow or lose a shard without a
  global reshuffle of the content-addressed result space.

The ring is immutable; grow or shrink by building a derived ring with
:meth:`HashRing.with_node` / :meth:`HashRing.without_node` — cheap, and
it keeps concurrent lookups trivially safe.  :class:`VersionedRing`
layers a monotonically increasing *version* over that derivation: each
join/leave produces a new (ring, version+1) pair, so the router can
tell clients — and its own bookkeeping — exactly which membership
epoch a routing decision belongs to.

Everything here is stdlib (:mod:`hashlib` + :mod:`bisect`): the router
process and client-side routing both stay dependency-free.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

from repro.errors import ServeError

#: Default virtual nodes per shard.  64 keeps the max/min shard share
#: within ~2x of fair for small fleets; pass a larger ``replicas`` for
#: tighter balance.
DEFAULT_RING_REPLICAS = 64


def _point(label: str) -> int:
    """Position of a label on the 64-bit circle."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Immutable consistent-hash ring over shard identifiers.

    ``nodes`` are opaque strings (the fleet uses shard base URLs).
    Duplicate nodes are rejected: a ring where one shard owns two
    identities would silently double its share.
    """

    def __init__(self, nodes: Sequence[str], replicas=None) -> None:
        nodes = list(nodes)
        if not nodes:
            raise ServeError("hash ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ServeError("hash ring nodes must be unique")
        self.replicas = (
            DEFAULT_RING_REPLICAS if replicas is None else int(replicas)
        )
        if self.replicas < 1:
            raise ServeError("ring replicas must be >= 1")
        self.nodes: Tuple[str, ...] = tuple(nodes)
        points: List[Tuple[int, str]] = []
        for node in self.nodes:
            for index in range(self.replicas):
                points.append((_point(f"{node}#{index}"), node))
        # On a (astronomically unlikely) point collision the
        # lexically-smaller node wins deterministically on every host.
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [n for _, n in points]

    def node_for(self, key: str) -> str:
        """The shard owning ``key`` (first point at or after its hash)."""
        position = bisect.bisect_right(self._points, _point(key))
        if position == len(self._points):
            position = 0  # wrap past the top of the circle
        return self._owners[position]

    def with_node(self, node: str) -> "HashRing":
        """A new ring with ``node`` joined."""
        return HashRing(self.nodes + (node,), replicas=self.replicas)

    def without_node(self, node: str) -> "HashRing":
        """A new ring with ``node`` removed."""
        if node not in self.nodes:
            raise ServeError(f"node {node!r} is not on the ring")
        return HashRing(
            [n for n in self.nodes if n != node], replicas=self.replicas
        )

    def spread(self, keys: Sequence[str]) -> Dict[str, int]:
        """How many of ``keys`` each node owns (diagnostics, tests)."""
        out = {node: 0 for node in self.nodes}
        for key in keys:
            out[self.node_for(key)] += 1
        return out

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary (rendered by the router's health record)."""
        return {
            "nodes": list(self.nodes),
            "replicas": self.replicas,
            "points": len(self._points),
        }

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    def __eq__(self, other: object) -> bool:
        """Structural identity: same points owned by the same nodes.

        Add-then-remove round-trips to an *identical* ring under this
        equality (pinned by ``tests/serve/test_ring.py``), which is
        what makes transient membership churn fully reversible.
        """
        if not isinstance(other, HashRing):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.replicas == other.replicas
            and self._points == other._points
            and self._owners == other._owners
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.replicas))


def moved_keys(old: HashRing, new: HashRing, keys: Sequence[str]) -> List[str]:
    """Keys whose owner differs between two rings (remap diagnostics).

    The router counts these on every membership change; the minimal-
    remap property tests assert every moved key involves the joined or
    departed node.
    """
    return [key for key in keys if old.node_for(key) != new.node_for(key)]


class VersionedRing:
    """A :class:`HashRing` plus a monotonically increasing version.

    Immutable like the ring itself: :meth:`join` / :meth:`leave` return
    a *new* ``VersionedRing`` with the version bumped, so a reader that
    grabbed a reference keeps a consistent (membership, version) pair
    while the router swaps in the successor.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        replicas=None,
        version: int = 0,
        _ring: "HashRing" = None,
    ) -> None:
        self.ring = _ring if _ring is not None else HashRing(
            nodes, replicas=replicas
        )
        self.version = int(version)

    @property
    def nodes(self) -> Tuple[str, ...]:
        return self.ring.nodes

    @property
    def replicas(self) -> int:
        return self.ring.replicas

    def node_for(self, key: str) -> str:
        return self.ring.node_for(key)

    def join(self, node: str) -> "VersionedRing":
        """A new versioned ring with ``node`` joined (version + 1)."""
        return VersionedRing(
            (), version=self.version + 1, _ring=self.ring.with_node(node)
        )

    def leave(self, node: str) -> "VersionedRing":
        """A new versioned ring with ``node`` removed (version + 1)."""
        if len(self.ring) == 1:
            raise ServeError(
                f"cannot remove {node!r}: it is the last node on the ring"
            )
        return VersionedRing(
            (), version=self.version + 1, _ring=self.ring.without_node(node)
        )

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary (the router's ``GET /ring`` payload core)."""
        out = self.ring.describe()
        out["version"] = self.version
        return out

    def __len__(self) -> int:
        return len(self.ring)

    def __contains__(self, node: object) -> bool:
        return node in self.ring
