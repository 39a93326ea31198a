"""The production replay loops: a two-stage private filter and vector LLC rounds.

The reference simulators (:func:`repro.sim.hierarchy.filter_private_reference`,
:func:`repro.sim.llc.simulate_llc_reference`) are pure-Python per-access
loops built on :class:`~repro.sim.cache.SetAssocCache`.  Each access pays
for numpy scalar indexing, a method dispatch, an
:class:`~repro.sim.cache.AccessOutcome` allocation and several dataclass
attribute updates — none of which change the simulated events.  They
stay as the semantic ground truth and the differential-test oracle;
every run replays through this module instead:

- the private hierarchy through :func:`filter_private_rounds`: one
  scalar pass over the L1s and the directory, then every core's L2 as
  set rounds (below);
- the shared LLC, under LRU, as numpy rounds over the whole trace
  (:func:`simulate_llc_vector`, ~10–18x over the reference loop):
  accesses are grouped by set index once and resolved in *rounds* —
  round ``t`` replays the ``t``-th access of every set simultaneously
  with array-based tag matching and an age-based LRU stack, so the
  Python-level loop runs ``max accesses-per-set`` times instead of once
  per access.  :func:`repro.sim.llc.simulate_llc` sends every other
  replacement policy to the reference loop; ``policy`` is the only
  thing that selects an LLC replay path;
- technique and wear replay (:mod:`repro.techniques.replay`,
  :mod:`repro.endurance.wear`) on the same rounds: :func:`lru_rounds`
  returns the stream-order hit and dirty-eviction masks every count
  derives from, and :func:`compacted_rounds` is its compacted-way
  variant.  Their oracle is
  :func:`repro.techniques.replay.replay_with_technique_reference`.

The private filter splits where the coupling between the levels is
narrow.  Only a block two or more cores touch can cause an
invalidation, a downgrade or a directory stat, and a dirty L2 eviction
of such a block (the directory's eviction notice) is the only way an
L2 feeds back into the L1s or the directory:

- stage one is the one per-access loop.  Trace columns are converted to
  plain Python lists once (``ndarray.tolist`` is a single C call); each
  L1 set is an insertion-ordered dict, touched with one
  ``dict.pop(key, sentinel)`` plus re-insert; the directory is a
  :class:`~repro.sim.directory.FullMapDirectory` that sees only the
  shared blocks.  It records each L1 miss, each dirty L1 victim and
  each invalidation or downgrade, with the victim core and the L1
  copy's dirty bit.  The (core, L2 set) lanes that can send a notice —
  their core writes a shared block there and touches more blocks there
  than the set has ways — also replay in this loop, as dicts, so each
  notice reaches the directory at its access and one pass is exact;
- stage two turns those records into fill, demand and invalidate
  operations on every lane and replays them with :func:`lru_rounds`.
  The LLC stream, the per-core counters and the instruction positions
  (one stable sort by core) are array arithmetic over its outcomes.
  Where the L2s barely evict (short traces), no lane is watched and
  stage one is the L1s and the directory alone.

Two steps skip replay work whose outcome is already known:

- **Settled sets.** A write-allocate LRU set whose distinct tags never
  exceed its ways never evicts: each of its accesses hits unless it is
  the first of its (set, tag) pair, and no line leaves.
  :func:`lru_rounds` finds those sets with one sort of the pairs and
  resolves them in closed form; only the other sets' accesses go
  through the rounds.  That serves LLC, wear and technique replay and
  the L2 lanes of single-threaded traces.  Calls with invalidations
  (the L2 lanes of multi-threaded traces) keep the rounds: there an
  emptied way makes a pair's later access miss, so a closed form needs
  a second, stable sort, and a prototype of it saved little.
- **L1 repeats.** Before stage one, an access to a private block that
  repeats the previous access of its own (core, L1 set) lane is
  dropped (:func:`_fold_repeats`).  It is an L1 hit on the lane's MRU
  line, and its only effect is that line's dirty bit, so its write is
  ORed into the access it repeats.  Stage one's records are mapped
  back to trace indices.  A shared block never folds: another core's
  store can invalidate the copy between the two accesses, and a store
  hit reaches the directory.

Invariants
----------

- **Bit-identical outputs.** For every trace and architecture, these
  loops and the reference loops produce equal
  :class:`~repro.sim.hierarchy.PrivateResult` and
  :class:`~repro.sim.llc.LLCCounts` — same event counts, same LLC
  stream, same directory statistics, in the same order, for any block
  id in the uint64 range.  Every branch mirrors a branch of
  ``SetAssocCache.access``/``fill``/``invalidate`` and
  ``FullMapDirectory.on_fill``/``on_evict``;
  ``tests/property/test_replay_conformance.py`` enforces it on
  adversarial streams.  Any divergence is a bug; bump
  :data:`repro.sim.replay_cache.CACHE_VERSION` whenever replay semantics
  intentionally change.
- **LRU only.** The vector rounds implement LRU (by byte budget, for
  the compacted ways).
- **No per-access observability.** The loops carry no metrics hooks —
  instrumentation lives in the callers
  (:func:`~repro.sim.hierarchy.filter_private`,
  :func:`~repro.sim.llc.simulate_llc`), which record the already-computed
  totals after the loop, so enabling :mod:`repro.obs` never slows the
  hot path.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.config import ArchitectureConfig
from repro.sim.directory import DirectoryStats, FullMapDirectory
from repro.trace.access import BLOCK_BITS
from repro.trace.stream import Trace

#: Sentinel distinguishing "absent" from a stored False dirty flag.
_MISS = object()


def resolve_engine(engine: None = None) -> str:
    """The replay engine's name for provenance: always ``"vector"``.

    Every run takes the same loops, so there is nothing to resolve;
    benchmark host fingerprints still record the name.
    """
    return "vector"


def check_geometry(
    capacity_bytes: int, block_bytes: int, associativity: int,
    error: type = ConfigurationError,
) -> int:
    """Validate geometry exactly like ``SetAssocCache``; returns n_sets.

    ``error`` is the class raised, so a technique's own cache variant
    (the compacted ways raise ``CompressionError``) keeps its failures.
    """
    if capacity_bytes % (block_bytes * associativity):
        raise error("capacity must be a whole number of sets")
    n_sets = capacity_bytes // (block_bytes * associativity)
    if n_sets <= 0:
        raise error("cache must have at least one set")
    return n_sets


def _per_core_positions(core_ids: np.ndarray, gaps: np.ndarray, n_cores: int):
    """Vectorized per-core instruction positions.

    Equivalent to ``counter.instructions += gap + 1; ipos =
    counter.instructions`` per access: a cumulative sum of ``gap + 1``
    segmented by issuing core, taken in one stable sort by core (core
    ids fit uint16, like the thread ids they fold).  Returns the
    position array and the final instruction total per core.
    """
    order = np.argsort(core_ids.astype(np.uint16), kind="stable")
    prefix = np.zeros(len(core_ids) + 1, dtype=np.int64)
    np.cumsum(gaps[order].astype(np.int64) + 1, out=prefix[1:])
    counts = np.bincount(core_ids, minlength=n_cores)
    ends = np.cumsum(counts)
    base = prefix[ends - counts]
    positions = np.empty(len(core_ids), dtype=np.int64)
    positions[order] = prefix[1:] - np.repeat(base, counts)
    return positions, (prefix[ends] - base).tolist()


def _round_major(set_idx: np.ndarray, n_sets: int):
    """Group a stream by set and order it round-major.

    Returns ``(perm, k_per_round, offsets, n_rows)``: round ``t`` is the
    ``t``-th access of every set still active, ``perm[offsets[t]:
    offsets[t + 1]]`` holds their stream indices, and its ``j``-th access
    belongs to state row ``j`` of ``n_rows``.  Rows are ranked by
    descending access count, so round ``t``'s rows are exactly
    ``[0, k_per_round[t])``; the permutation comes from **one** stable
    sort by row, after which the ``j``-th access of row ``i`` lands at
    ``offsets[j] + i`` — pure arithmetic.
    """
    n = len(set_idx)
    if n_sets <= 2 * n:
        # Dense: one state row per set, occupancy from bincount.
        set_counts = np.bincount(set_idx, minlength=n_sets)
        set_cid = set_idx
        n_rows = n_sets
    else:
        # Sparse (huge cache, short stream): compact to touched sets
        # so state stays O(accesses), not O(cache).
        _, set_cid, set_counts = np.unique(
            set_idx, return_inverse=True, return_counts=True
        )
        n_rows = len(set_counts)

    max_count = int(set_counts.max())
    if max_count <= np.iinfo(np.uint16).max:
        rank_key = (max_count - set_counts).astype(np.uint16)
    else:
        rank_key = -set_counts
    rank_order = np.argsort(rank_key, kind="stable")
    rank = np.empty(n_rows, dtype=np.int64)
    rank[rank_order] = np.arange(n_rows)
    counts_desc = set_counts[rank_order]
    row = rank[set_cid]
    # k_per_round[t] = number of sets with more than t accesses.
    k_per_round = np.searchsorted(
        -counts_desc, -np.arange(max_count), side="left"
    )
    offsets = np.r_[0, np.cumsum(k_per_round)]

    if n_rows <= np.iinfo(np.uint16).max:
        sort_key = row.astype(np.uint16)
    else:
        sort_key = row.astype(np.uint32)
    order = np.argsort(sort_key, kind="stable")
    n_active = int(np.count_nonzero(counts_desc))
    active_counts = counts_desc[:n_active]
    group_starts = np.r_[0, np.cumsum(active_counts[:-1])]
    pos_sorted = np.arange(n, dtype=np.int64) - np.repeat(
        group_starts, active_counts
    )
    row_sorted = np.repeat(np.arange(n_active, dtype=np.int64), active_counts)
    perm = np.empty(n, dtype=np.int64)
    perm[offsets[pos_sorted] + row_sorted] = order
    return perm, k_per_round, offsets, n_rows


def lru_rounds(
    set_idx, tags, writes, n_sets: int, associativity: int, invalidate=None,
):
    """Stream-order outcomes of an LRU replay: ``(hit, evict, victim)``.

    Access ``i`` looks up ``tags[i]`` (uint64) in set ``set_idx[i]``
    (int64, below ``n_sets``) of a write-back, write-allocate LRU cache
    that starts empty — :class:`~repro.sim.cache.SetAssocCache`'s
    semantics, with the tag in place of the block id.  Where the
    optional mask ``invalidate`` is set, access ``i`` instead drops
    ``tags[i]`` from its set if present (``SetAssocCache.invalidate``)
    and installs nothing.  Per access, ``hit`` says the tag was
    present, ``evict`` that a dirty line left the set (the LRU victim of
    a miss, or the line an invalidation dropped) and ``victim`` holds
    that line's tag where ``evict`` is set.  Every replay of an LRU
    stream reduces to these: the LLC counts, the wear tally, the
    technique replay and the private L2s all derive from them.

    Settling — without ``invalidate``, one sort of the (set, tag) pairs
    (:func:`_settle`) counts each set's distinct tags.  A set with no
    more than ``associativity`` of them never evicts, so its accesses
    are resolved in closed form: a hit unless first of their pair, no
    eviction.  Only the other sets' accesses take the rounds.  With
    ``invalidate`` every access takes them: an invalidation can empty a
    way and make a pair's later access miss.

    Algorithm — *rounds lockstep over sets* (:func:`_round_major`):
    replay round by round on flat state arrays ``tags`` / ``dirty`` /
    ``age`` of shape ``(n_rows * assoc,)``, all zero at the start.  The
    LRU victim is ``argmin(age)``: empty ways carry age 0 and fill
    lowest-index first, exactly the reference loop's install order, and
    evicting an empty way is indistinguishable from installing into it
    because an empty way is never dirty.  Without invalidations the
    filled ways of a row are always a prefix of it, so the first tag
    match (``argmax``) reaches a filled way holding the tag before any
    empty way whose tag 0 happens to equal it; a hit is a tag match on
    a way with non-zero age.  An invalidation empties its way (age 0,
    clean) wherever it sits, so with ``invalidate`` given the match
    itself tests ``age != 0``.  No tag value is reserved, so every
    uint64 tag is valid.

    The per-access work is ``O(assoc)`` like the reference loop, but the
    interpreter loop runs ``max accesses-per-set`` times (tens) instead
    of once per access (tens of thousands).
    """
    n = len(tags)
    if invalidate is not None or not n:
        return _rounds(set_idx, tags, writes, n_sets, associativity, invalidate)
    hit, overflow = _settle(set_idx, tags, n_sets, associativity)
    evict = np.zeros(n, dtype=bool)
    victim = np.zeros(n, dtype=np.uint64)
    rest = np.flatnonzero(overflow)
    if len(rest):
        hit[rest], evict[rest], victim[rest] = _rounds(
            set_idx[rest], tags[rest], writes[rest], n_sets, associativity
        )
    return hit, evict, victim


def _settle(set_idx, tags, n_sets: int, associativity: int):
    """``(hit, overflow)`` per access: the settling step of
    :func:`lru_rounds`.  ``overflow`` marks the accesses of sets with
    more distinct tags than ``associativity``; their ``hit`` entries
    are left for the rounds.
    """
    n = len(tags)
    bits = (n_sets - 1).bit_length()
    new = np.empty(n, dtype=bool)
    new[0] = True
    if int(tags.max()) >> (64 - bits) == 0:
        # The tag fits beside the set bits: one uint64 key.
        key = (tags << np.uint64(bits)) | set_idx.astype(np.uint64)
        order = np.argsort(key)
        key = key[order]
        np.not_equal(key[1:], key[:-1], out=new[1:])
    else:
        order = np.lexsort((tags, set_idx))
        by_tag, by_set = tags[order], set_idx[order]
        np.not_equal(by_tag[1:], by_tag[:-1], out=new[1:])
        new[1:] |= by_set[1:] != by_set[:-1]
    # The sort need not be stable: each pair's first access is the
    # smallest index in its group.
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    hit = np.ones(n, dtype=bool)
    hit[first] = False
    distinct = np.bincount(set_idx[first], minlength=n_sets)
    return hit, distinct[set_idx] > associativity


def _rounds(set_idx, tags, writes, n_sets: int, assoc: int, invalidate=None):
    """The rounds of :func:`lru_rounds` over every access it is given."""
    n = len(tags)
    hit_out = np.zeros(n, dtype=bool)
    evict_out = np.zeros(n, dtype=bool)
    victim_out = np.zeros(n, dtype=np.uint64)
    if not n:
        return hit_out, evict_out, victim_out
    perm, k_per_round, offsets, n_rows = _round_major(set_idx, n_sets)
    bs = tags[perm]
    ws = writes[perm]
    # Calls without invalidations keep their own per-round updates
    # below.  The general ones with an all-False mask give the same
    # outcomes, but on the sweep experiments' 90 such calls (664,174
    # accesses at scale 0.05) they took 572 ms against 418 ms (medians
    # of 7 alternating runs), 37% slower.
    holes = invalidate is not None
    if holes:
        ivs = invalidate[perm]

    # Flat per-way state, row-major (n_rows, assoc), plus one slot past
    # the last way that absorbs the writes of invalidations that miss.
    size = n_rows * assoc
    state_tags = np.zeros(size + 1, dtype=np.uint64)
    dirty = np.zeros(size + 1, dtype=bool)
    age = np.zeros(size + 1, dtype=np.uint32)
    tags2 = state_tags[:size].reshape(n_rows, assoc)
    age2 = age[:size].reshape(n_rows, assoc)
    row_base = np.arange(n_rows, dtype=np.int64) * assoc

    hit_flat = np.empty(n, dtype=bool)
    evict_flat = np.empty(n, dtype=bool)
    victim_flat = np.empty(n, dtype=np.uint64)

    # Round 0: every set is empty — guaranteed miss into way 0 (an
    # invalidation leaves it empty).
    k0 = int(k_per_round[0])
    installs = ~ivs[:k0] if holes else True
    hit_flat[:k0] = False
    evict_flat[:k0] = False
    victim_flat[:k0] = 0
    tags2[:k0, 0] = bs[:k0]
    dirty[row_base[:k0]] = ws[:k0] & installs
    age[row_base[:k0]] = installs

    for t in range(1, len(k_per_round)):
        k = int(k_per_round[t])
        lo, hi = int(offsets[t]), int(offsets[t + 1])
        b = bs[lo:hi]
        hitm = tags2[:k] == b[:, None]
        if holes:
            hitm &= age2[:k] != 0
        way = row_base[:k] + hitm.argmax(axis=1)
        hit = (state_tags[way] == b) & (age[way] != 0)
        victim = age2[:k].argmin(axis=1)
        flat = np.where(hit, way, row_base[:k] + victim)
        if holes:
            iv = ivs[lo:hi]
            flat[iv & ~hit] = size
        old_d = dirty[flat]
        hit_flat[lo:hi] = hit
        victim_flat[lo:hi] = state_tags[flat]
        state_tags[flat] = b
        if holes:
            evict_flat[lo:hi] = old_d & (hit == iv)
            dirty[flat] = ~iv & ((hit & old_d) | ws[lo:hi])
            age[flat] = np.where(iv, 0, t + 1)
        else:
            evict_flat[lo:hi] = ~hit & old_d
            dirty[flat] = (hit & old_d) | ws[lo:hi]
            age[flat] = t + 1

    hit_out[perm] = hit_flat
    evict_out[perm] = evict_flat
    victim_out[perm] = victim_flat
    return hit_out, evict_out, victim_out


def compacted_rounds(
    set_idx, tags, writes, sizes, n_sets: int, associativity: int,
    block_bytes: int, tag_factor: int,
):
    """Stream-order outcomes of a compacted-way replay.

    The vector form of
    :class:`~repro.techniques.compression.CompactedWayCache`: a set
    holds lines by byte budget (``associativity * block_bytes``) up to
    ``tag_factor * associativity`` tags; a miss evicts LRU lines until
    both budgets admit the new line of ``sizes[i]`` bytes; a hit keeps
    the stored size and a sticky dirty bit.  Returns ``(hit,
    dirty_victims, resident)`` per access: whether it hit, how many
    dirty lines its miss evicted, and the lines resident in its set
    afterwards.

    The rounds are those of :func:`lru_rounds` on rows of
    ``tag_factor * associativity`` ways, each with a size.  One miss
    may evict several lines and leave holes anywhere in the row, so
    filled ways are no prefix here: a hit is a tag match on a way with
    non-zero age.  The victims are the oldest lines, as many as the
    prefix sums of their sizes in age order (and the tag count) demand.
    """
    n = len(tags)
    hit_out = np.zeros(n, dtype=bool)
    victims_out = np.zeros(n, dtype=np.int64)
    resident_out = np.zeros(n, dtype=np.int64)
    if not n:
        return hit_out, victims_out, resident_out
    ways = tag_factor * associativity
    byte_budget = associativity * block_bytes
    perm, k_per_round, offsets, n_rows = _round_major(set_idx, n_sets)
    bs = tags[perm]
    ws = writes[perm]
    ss = sizes[perm]

    state_tags = np.zeros((n_rows, ways), dtype=np.uint64)
    size = np.zeros((n_rows, ways), dtype=np.int64)
    dirty = np.zeros((n_rows, ways), dtype=bool)
    age = np.zeros((n_rows, ways), dtype=np.uint32)
    position = np.arange(ways)

    hit_flat = np.empty(n, dtype=bool)
    victims_flat = np.zeros(n, dtype=np.int64)
    resident_flat = np.empty(n, dtype=np.int64)

    for t in range(len(k_per_round)):
        k = int(k_per_round[t])
        lo, hi = int(offsets[t]), int(offsets[t + 1])
        b = bs[lo:hi]
        s = ss[lo:hi]
        filled = age[:k] != 0
        match = (state_tags[:k] == b[:, None]) & filled
        hit = match.any(axis=1)
        lines = filled.sum(axis=1)
        over = size[:k].sum(axis=1) + s - byte_budget
        evicted = np.zeros(k, dtype=np.int64)
        must = ~hit & ((over > 0) | (lines == ways))
        if must.any():
            rows = np.flatnonzero(must)
            # Empty ways (age 0) sort first, then lines from LRU to MRU.
            order = np.argsort(age[rows], axis=1, kind="stable")
            cum = np.cumsum(np.take_along_axis(size[rows], order, axis=1), axis=1)
            empty = ways - lines[rows]
            need = over[rows]
            by_bytes = np.where(
                need > 0, (cum < need[:, None]).sum(axis=1) + 1 - empty, 0
            )
            by_tags = lines[rows] - ways + 1
            count = np.maximum(by_bytes, by_tags)
            gone = (position >= empty[:, None]) & (
                position < (empty + count)[:, None]
            )
            dirty_sorted = np.take_along_axis(dirty[rows], order, axis=1)
            victims_flat[lo + rows] = (gone & dirty_sorted).sum(axis=1)
            sub, gone_pos = np.nonzero(gone)
            gone_rows, gone_ways = rows[sub], order[sub, gone_pos]
            age[gone_rows, gone_ways] = 0
            size[gone_rows, gone_ways] = 0
            dirty[gone_rows, gone_ways] = False
            evicted[rows] = count
        r = np.arange(k)
        # A miss installs into an empty way: one was free, or the
        # evictions above just freed the oldest.
        way = np.where(hit, match.argmax(axis=1), age[:k].argmin(axis=1))
        dirty[r, way] = (hit & dirty[r, way]) | ws[lo:hi]
        size[r, way] = np.where(hit, size[r, way], s)
        state_tags[r, way] = b
        age[r, way] = t + 1
        hit_flat[lo:hi] = hit
        resident_flat[lo:hi] = np.where(hit, lines, lines - evicted + 1)

    hit_out[perm] = hit_flat
    victims_out[perm] = victims_flat
    resident_out[perm] = resident_flat
    return hit_out, victims_out, resident_out


def llc_counts(
    stream, hit, writes, kept, dirty_evictions: int, capacity_bytes: int,
    associativity: int, n_cores: int, mlp_window: int, mlp_ceiling: float,
):
    """:class:`~repro.sim.llc.LLCCounts` from stream-order masks.

    ``hit`` and ``writes`` are per access; ``kept`` marks the accesses
    that reached the cache (a bypassed write counts as none of its
    lookups).  Every field is a Python int (or list of them), like the
    reference loop's.
    """
    from repro.sim.llc import LLCCounts, per_core_mlp

    reads = ~writes
    read_hit = hit & reads
    read_miss = ~hit & reads
    kept_writes = writes & kept
    cores = np.asarray(stream.cores, dtype=np.int64)

    counts = LLCCounts(capacity_bytes=capacity_bytes, associativity=associativity)
    counts.read_hits = int(np.count_nonzero(read_hit))
    counts.read_misses = int(np.count_nonzero(read_miss))
    counts.read_lookups = counts.read_hits + counts.read_misses
    counts.write_hits = int(np.count_nonzero(hit & kept_writes))
    counts.write_accesses = int(np.count_nonzero(kept_writes))
    counts.write_misses = counts.write_accesses - counts.write_hits
    counts.dirty_evictions = dirty_evictions
    counts.per_core_read_hits = np.bincount(
        cores[read_hit], minlength=n_cores
    ).tolist()
    counts.per_core_read_misses = np.bincount(
        cores[read_miss], minlength=n_cores
    ).tolist()
    counts.per_core_mlp = per_core_mlp(
        stream, read_miss, n_cores, mlp_window, mlp_ceiling
    )
    return counts


def simulate_llc_vector(
    stream,
    capacity_bytes: int,
    associativity: int = 16,
    block_bytes: int = 64,
    n_cores: int = 4,
    mlp_window: int = 128,
    mlp_ceiling: float = 6.0,
):
    """Whole-trace vectorized LRU replay of an LLC stream.

    Mirrors :func:`repro.sim.llc.simulate_llc_reference` with
    ``policy="lru"``: returns an identical
    :class:`~repro.sim.llc.LLCCounts` for any uint64 block ids (the
    conformance suite pins this).  The replay is :func:`lru_rounds` with
    the block id as tag; every count — per-core splits and MLP miss
    positions included — depends only on its stream-order masks.
    """
    n_sets = check_geometry(capacity_bytes, block_bytes, associativity)
    blocks = np.ascontiguousarray(stream.blocks, dtype=np.uint64)
    writes = np.ascontiguousarray(stream.writes, dtype=bool)
    set_idx = (blocks % np.uint64(n_sets)).astype(np.int64)
    hit, evict, _ = lru_rounds(set_idx, blocks, writes, n_sets, associativity)
    return llc_counts(
        stream, hit, writes, np.ones(len(blocks), dtype=bool),
        int(np.count_nonzero(evict)), capacity_bytes, associativity,
        n_cores, mlp_window, mlp_ceiling,
    )


def filter_private_rounds(trace: Trace, arch: ArchitectureConfig):
    """Two-stage replay of a trace through the per-core L1D/L2 levels.

    Mirrors :func:`repro.sim.hierarchy.filter_private_reference`
    event-for-event: identical LLC stream, per-core counters and
    directory statistics.  Stage one is :func:`_l1_pass` over the
    accesses :func:`_fold_repeats` keeps, stage two :func:`_l2_pass`
    (see the module docstring); each runs once.
    """
    from repro.sim.hierarchy import CoreCounters, LLCStream, PrivateResult

    n_cores = arch.n_cores
    l1_nsets = check_geometry(
        arch.l1d.capacity_bytes, arch.l1d.block_bytes, arch.l1d.associativity
    )
    l2_nsets = check_geometry(
        arch.l2.capacity_bytes, arch.l2.block_bytes, arch.l2.associativity
    )
    l2_assoc = arch.l2.associativity
    n_threads = max(1, trace.n_threads)
    blocks = trace.addresses >> np.uint64(BLOCK_BITS)
    cores = trace.thread_ids.astype(np.int64) % n_cores
    positions, instructions = _per_core_positions(cores, trace.gaps, n_cores)
    rows = cores * l1_nsets + (blocks % np.uint64(l1_nsets)).astype(np.int64)
    shared = None
    watched = None
    if n_threads > 1:
        shared, pairs = _sharing(blocks, cores, n_cores)
        lanes = cores * l2_nsets + (blocks % np.uint64(l2_nsets)).astype(np.int64)
        # A lane can evict a dirty shared block only if its core writes a
        # shared block there and touches more blocks there than it has ways.
        n_lanes = n_cores * l2_nsets
        watch = np.zeros(n_lanes, dtype=bool)
        watch[lanes[shared & trace.writes]] = True
        watch &= np.bincount(lanes[pairs], minlength=n_lanes) > l2_assoc
        if watch.any():
            watched = (l2_nsets, l2_assoc, watch.tolist())
        del lanes, pairs, watch
    kept, writes = _fold_repeats(
        blocks, trace.writes, rows, n_cores * l1_nsets, shared
    )
    columns = (
        blocks[kept].tolist(),
        writes.tolist(),
        rows[kept].tolist(),
        itertools.repeat(False) if shared is None else shared[kept].tolist(),
    )
    del rows, writes
    l1 = _l1_pass(columns, n_cores, l1_nsets, arch.l1d.associativity, watched)
    del columns
    # Stage one counted kept accesses; its records name trace accesses.
    l1 = l1._replace(
        miss_at=kept[l1.miss_at], fill_at=kept[l1.fill_at], inv_at=kept[l1.inv_at]
    )
    l2 = _l2_pass(l1, blocks, cores, n_cores, l2_nsets, l2_assoc)

    demand_miss = (l2.kind == _DEMAND) & ~l2.hit
    # Up to two LLC entries per L2 operation, in the reference order:
    # the dirty line it evicts (or, for an invalidation, the copy either
    # level held dirty), then a demand miss's read.
    entries = np.flatnonzero(
        np.column_stack((l2.evict | l2.l1_dirty, demand_miss)).reshape(-1)
    )
    op = entries >> 1
    read = (entries & 1).astype(bool)
    own_block = read | (l2.kind[op] == _INVALIDATE)
    stream = LLCStream(
        blocks=np.where(own_block, l2.blocks[op], l2.victim[op]),
        writes=~read,
        cores=l2.cores[op].astype(np.uint16),
        instr_positions=positions[l2.at[op]].astype(np.uint64),
    )
    accesses = np.bincount(cores, minlength=n_cores).tolist()
    l1_misses = np.bincount(cores[l1.miss_at], minlength=n_cores).tolist()
    l2_misses = np.bincount(l2.cores[demand_miss], minlength=n_cores).tolist()
    counters = [
        CoreCounters(
            instructions=instructions[core],
            accesses=accesses[core],
            l1_hits=accesses[core] - l1_misses[core],
            l1_misses=l1_misses[core],
            l2_hits=l1_misses[core] - l2_misses[core],
            l2_misses=l2_misses[core],
        )
        for core in range(n_cores)
    ]
    return PrivateResult(
        stream=stream, per_core=counters, directory=l1.directory,
        n_threads=n_threads,
    )


def _sharing(blocks: np.ndarray, cores: np.ndarray, n_cores: int):
    """One sort of the accesses by (block, core).

    Returns which accesses touch a block two or more cores touch, and the
    index of one access per distinct (block, core) pair.  The sort key
    packs the core below the block id (block ids fit 58 bits), with a
    two-key sort as the fallback for more cores than that leaves room for.
    """
    bits = max(1, (n_cores - 1).bit_length())
    if bits <= BLOCK_BITS:
        order = np.argsort((blocks << np.uint64(bits)) | cores.astype(np.uint64))
    else:
        order = np.lexsort((cores, blocks))
    by_block = blocks[order]
    by_core = cores[order]
    first = np.ones(len(by_block), dtype=bool)
    np.not_equal(by_block[1:], by_block[:-1], out=first[1:])
    pair = first.copy()
    pair[1:] |= by_core[1:] != by_core[:-1]
    group = np.cumsum(first) - 1
    # Cores ascend within a block, so it is shared iff its cores differ
    # at its two ends.
    last = np.roll(first, -1)
    touched = by_core[last] != by_core[first]
    shared = np.empty(len(blocks), dtype=bool)
    shared[order] = touched[group]
    return shared, order[pair]


def _fold_repeats(blocks, writes, rows, n_rows: int, shared):
    """``(kept, writes)``: the trace accesses stage one replays, as int32
    indices, and their write flags.

    An access to a private block that repeats the previous access of its
    (core, L1 set) lane ``rows`` (below ``n_rows``) is an L1 hit on that
    lane's MRU line, and its only effect is the line's dirty bit.  It is
    dropped, and its write is ORed into the access it repeats.  A block
    in ``shared`` (or ``None``: no block is) never folds: another core's
    store can invalidate the copy between the two accesses, and a store
    hit reaches the directory.
    """
    n = len(blocks)
    key = rows.astype(np.uint16 if n_rows <= 1 << 16 else np.uint32)
    order = np.argsort(key, kind="stable")
    by_lane = blocks[order]
    repeat = np.zeros(n + 1, dtype=bool)
    np.equal(by_lane[1:], by_lane[:-1], out=repeat[1:n])
    # The first access of each lane repeats nothing.
    repeat[np.cumsum(np.bincount(key, minlength=n_rows))] = False
    repeat = repeat[:n]
    if shared is not None:
        repeat &= ~shared[order]
    keep = np.ones(n, dtype=bool)
    keep[order[repeat]] = False
    kept = np.flatnonzero(keep).astype(np.int32)
    # A folded write marks the access that starts its run of repeats.
    wrote = np.flatnonzero(repeat & writes[order])
    folded = writes.copy()
    if len(wrote):
        start = np.flatnonzero(~repeat)
        folded[order[start[np.searchsorted(start, wrote, side="right") - 1]]] = True
    return kept, folded[kept]


#: L2 operation kinds, in their order within one access.
_FILL, _DEMAND, _INVALIDATE = 0, 1, 2


class _L1Records(NamedTuple):
    """What stage one hands the L2s: int32 access indices with their
    operands, and the directory statistics."""

    miss_at: np.ndarray  # each L1 miss
    fill_at: np.ndarray  # each dirty L1 victim ...
    fill_tag: np.ndarray  # ... and its block
    inv_at: np.ndarray  # each invalidation or downgrade, in victim order ...
    inv_core: np.ndarray  # ... its victim core ...
    inv_dirty: np.ndarray  # ... and the dirty bit of that core's L1 copy
    directory: DirectoryStats


class _L2Ops(NamedTuple):
    """Stage two's operations in access order, with their outcomes."""

    at: np.ndarray  # access index (int32)
    kind: np.ndarray  # _FILL, _DEMAND or _INVALIDATE (int8)
    blocks: np.ndarray
    cores: np.ndarray
    hit: np.ndarray  # the lru_rounds outcomes
    evict: np.ndarray
    victim: np.ndarray
    l1_dirty: np.ndarray  # an invalidation's L1 copy was dirty


def _l1_pass(columns, n_cores: int, l1_nsets: int, l1_assoc: int, watched):
    """Stage one: the L1s and the shared blocks' directory, per access.

    Returns the :class:`_L1Records` of the pass, its indices counting
    the accesses in ``columns`` (the caller maps them back to the
    trace past the folded repeats).  ``watched`` is
    ``None``, or ``(l2_nsets, l2_assoc, flags)`` with one flag per
    (core, L2 set) lane that can evict a dirty shared block.  Those
    lanes also replay here, as insertion-ordered dicts like the L1 sets,
    so each of their dirty evictions reaches the directory
    (``on_evict``) at its access, before that access's fill.
    """
    blocks, writes, rows, shared = columns
    miss = _MISS
    l1_sets = [dict() for _ in range(n_cores * l1_nsets)]
    miss_at: List[int] = []
    fill_at: List[int] = []
    fill_tag: List[int] = []
    inv_at: List[int] = []
    inv_core: List[int] = []
    inv_dirty: List[bool] = []
    directory = FullMapDirectory(n_cores)
    if watched is not None:
        l2_nsets, l2_assoc, flags = watched
        l2_sets = [dict() if flag else None for flag in flags]
    else:
        l2_sets = None

    for i, block, is_write, row, is_shared in zip(
        itertools.count(), blocks, writes, rows, shared
    ):
        lines = l1_sets[row]
        dirty = lines.pop(block, miss)
        if dirty is not miss:
            # L1 hit: refresh to MRU; only a store to a shared block
            # reaches the directory.
            lines[block] = dirty or is_write
            if not (is_write and is_shared):
                continue
        else:
            miss_at.append(i)
            l1_victim = None
            if len(lines) >= l1_assoc:
                victim = next(iter(lines))
                if lines.pop(victim):
                    fill_at.append(i)
                    fill_tag.append(victim)
                    l1_victim = victim
            lines[block] = is_write
            if l2_sets is not None:
                core_lanes = row // l1_nsets * l2_nsets
                if l1_victim is not None:
                    # The dirty L1 victim's fill, then the demand read.
                    lines2 = l2_sets[core_lanes + l1_victim % l2_nsets]
                    if lines2 is not None:
                        if (
                            lines2.pop(l1_victim, miss) is miss
                            and len(lines2) >= l2_assoc
                        ):
                            victim = next(iter(lines2))
                            if lines2.pop(victim):
                                directory.on_evict(row // l1_nsets, victim)
                        lines2[l1_victim] = True
                lines2 = l2_sets[core_lanes + block % l2_nsets]
                if lines2 is not None:
                    dirty = lines2.pop(block, miss)
                    if dirty is miss:
                        if len(lines2) >= l2_assoc:
                            victim = next(iter(lines2))
                            if lines2.pop(victim):
                                directory.on_evict(row // l1_nsets, victim)
                        dirty = False
                    lines2[block] = dirty
            if not is_shared:
                continue

        # A store invalidates every other sharer, a load downgrades
        # another core's ownership.
        core = row // l1_nsets
        for victim_core in directory.on_fill(core, block, exclusive=is_write):
            dirty = l1_sets[row + (victim_core - core) * l1_nsets].pop(block, None)
            inv_at.append(i)
            inv_core.append(victim_core)
            inv_dirty.append(dirty is True)
            if l2_sets is not None:
                lines2 = l2_sets[victim_core * l2_nsets + block % l2_nsets]
                if lines2 is not None:
                    lines2.pop(block, None)

    return _L1Records(
        np.array(miss_at, dtype=np.int32),
        np.array(fill_at, dtype=np.int32),
        np.array(fill_tag, dtype=np.uint64),
        np.array(inv_at, dtype=np.int32),
        np.array(inv_core, dtype=np.int32),
        np.array(inv_dirty, dtype=bool),
        directory.stats,
    )


def _l2_pass(l1, blocks, cores, n_cores: int, l2_nsets: int, l2_assoc: int):
    """Stage two: every core's L2 as :func:`lru_rounds` over (core, set)
    lanes.

    Stage one's records become one operation list in access order —
    within an access, the dirty L1 victim's fill, the demand read, then
    the invalidations in victim order — returned as :class:`_L2Ops`.
    """
    at = np.concatenate((l1.fill_at, l1.miss_at, l1.inv_at))
    # A stable sort by access keeps the kinds' order within an access.
    order = np.argsort(at, kind="stable")
    kind = np.repeat(
        np.array((_FILL, _DEMAND, _INVALIDATE), dtype=np.int8),
        (len(l1.fill_at), len(l1.miss_at), len(l1.inv_at)),
    )[order]
    op_blocks = np.concatenate(
        (l1.fill_tag, blocks[l1.miss_at], blocks[l1.inv_at])
    )[order]
    op_cores = np.concatenate(
        (cores[l1.fill_at], cores[l1.miss_at], l1.inv_core)
    )[order]
    l1_dirty = np.concatenate(
        (np.zeros(len(l1.fill_at) + len(l1.miss_at), dtype=bool), l1.inv_dirty)
    )[order]
    lanes = op_cores * l2_nsets + (op_blocks % np.uint64(l2_nsets)).astype(np.int64)
    hit, evict, victim = lru_rounds(
        lanes, op_blocks, kind == _FILL, n_cores * l2_nsets, l2_assoc,
        invalidate=(kind == _INVALIDATE) if len(l1.inv_at) else None,
    )
    return _L2Ops(
        at[order], kind, op_blocks, op_cores, hit, evict, victim, l1_dirty
    )
