"""The production replay loops: a batched private filter and vector LLC rounds.

The reference simulators (:func:`repro.sim.hierarchy.filter_private_reference`,
:func:`repro.sim.llc.simulate_llc_reference`) are pure-Python per-access
loops built on :class:`~repro.sim.cache.SetAssocCache`.  Each access pays
for numpy scalar indexing, a method dispatch, an
:class:`~repro.sim.cache.AccessOutcome` allocation and several dataclass
attribute updates — none of which change the simulated events.  They
stay as the semantic ground truth and the differential-test oracle;
every run replays through this module instead:

- the private hierarchy through :func:`filter_private_fast`, a batched
  flat loop (3–5x: its L1/L2/coherence interplay is control-flow-bound,
  not replay-bound);
- the shared LLC, under LRU, as numpy rounds over the whole trace
  (:func:`simulate_llc_vector`, ~10–18x over the reference loop):
  accesses are grouped by set index once and resolved in *rounds* —
  round ``t`` replays the ``t``-th access of every set simultaneously
  with array-based tag matching and an age-based LRU stack, so the
  Python-level loop runs ``max accesses-per-set`` times instead of once
  per access.  :func:`repro.sim.llc.simulate_llc` sends every other
  replacement policy to the reference loop; ``policy`` is the only
  thing that selects a replay path;
- technique and wear replay (:mod:`repro.techniques.replay`,
  :mod:`repro.endurance.wear`) on the same rounds: :func:`lru_rounds`
  returns the stream-order hit and dirty-eviction masks every count
  derives from, and :func:`compacted_rounds` is its compacted-way
  variant.  Their oracle is
  :func:`repro.techniques.replay.replay_with_technique_reference`.

The batched private loop replays the same streams through the same LRU
semantics as the reference:

- trace columns are converted to plain Python lists once
  (``ndarray.tolist`` is a single C call) and everything derivable ahead
  of the loop — set indices, per-core instruction positions (a segmented
  cumulative sum), per-core access totals — is vectorized in numpy;
- cache sets are plain insertion-ordered dicts addressed through local
  variables, with LRU touch done as one ``dict.pop(key, sentinel)``
  plus re-insert instead of get/del/insert;
- the coherence directory is inlined as local dicts and integers
  (method calls and stats-dataclass updates dominate the multi-threaded
  path otherwise), and the single-threaded loop carries no coherence
  checks at all.

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

from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.config import ArchitectureConfig
from repro.sim.directory import FullMapDirectory
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
    segmented by issuing core.  Returns the position array and the final
    instruction total per core.
    """
    totals = gaps.astype(np.int64) + 1
    positions = np.empty(len(core_ids), dtype=np.int64)
    final = [0] * n_cores
    for core in range(n_cores):
        mask = core_ids == core
        if mask.any():
            cum = np.cumsum(totals[mask])
            positions[mask] = cum
            final[core] = int(cum[-1])
    return positions, final


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


def lru_rounds(set_idx, tags, writes, n_sets: int, associativity: int):
    """Stream-order hit and dirty-eviction masks of an LRU replay.

    Access ``i`` looks up ``tags[i]`` (uint64) in set ``set_idx[i]``
    (int64, below ``n_sets``) of a write-back, write-allocate LRU cache
    that starts empty — :class:`~repro.sim.cache.SetAssocCache`'s
    semantics, with the tag in place of the block id.  Every replay of
    an LRU stream reduces to these two masks: the LLC counts, the wear
    tally and the technique replay all derive from them.

    Algorithm — *rounds lockstep over sets* (:func:`_round_major`):
    replay round by round on flat state arrays ``tags`` / ``dirty`` /
    ``age`` of shape ``(n_rows * assoc,)``, all zero at the start.  The
    LRU victim is ``argmin(age)``: empty ways carry age 0 and fill
    lowest-index first, exactly the reference loop's install order, and
    evicting an empty way is indistinguishable from installing into it
    because an empty way is never dirty.  Since nothing invalidates, the
    filled ways of a row are always a prefix of it, so the first tag
    match (``argmax``) reaches a filled way holding the tag before any
    empty way whose tag 0 happens to equal it; a hit is a tag match on
    a way with non-zero age.  No tag value is reserved, so every uint64
    tag is valid.

    The per-access work is ``O(assoc)`` like the reference loop, but the
    interpreter loop runs ``max accesses-per-set`` times (tens) instead
    of once per access (tens of thousands).
    """
    n = len(tags)
    hit_out = np.zeros(n, dtype=bool)
    evict_out = np.zeros(n, dtype=bool)
    if not n:
        return hit_out, evict_out
    assoc = associativity
    perm, k_per_round, offsets, n_rows = _round_major(set_idx, n_sets)
    bs = tags[perm]
    ws = writes[perm]

    # Flat per-way state, row-major (n_rows, assoc).
    state_tags = np.zeros(n_rows * assoc, dtype=np.uint64)
    dirty = np.zeros(n_rows * assoc, dtype=bool)
    age = np.zeros(n_rows * assoc, dtype=np.uint32)
    tags2 = state_tags.reshape(n_rows, assoc)
    age2 = age.reshape(n_rows, assoc)
    row_base = np.arange(n_rows, dtype=np.int64) * assoc

    hit_flat = np.empty(n, dtype=bool)
    evict_flat = np.empty(n, dtype=bool)

    # Round 0: every set is empty — guaranteed miss into way 0.
    k0 = int(k_per_round[0])
    hit_flat[:k0] = False
    evict_flat[:k0] = False
    tags2[:k0, 0] = bs[:k0]
    dirty[row_base[:k0]] = ws[:k0]
    age[row_base[:k0]] = 1

    for t in range(1, len(k_per_round)):
        k = int(k_per_round[t])
        lo, hi = int(offsets[t]), int(offsets[t + 1])
        b = bs[lo:hi]
        hitm = tags2[:k] == b[:, None]
        way = row_base[:k] + hitm.argmax(axis=1)
        hit = (state_tags[way] == b) & (age[way] != 0)
        victim = age2[:k].argmin(axis=1)
        flat = np.where(hit, way, row_base[:k] + victim)
        old_d = dirty[flat]
        hit_flat[lo:hi] = hit
        evict_flat[lo:hi] = ~hit & old_d
        state_tags[flat] = b
        dirty[flat] = (hit & old_d) | ws[lo:hi]
        age[flat] = t + 1

    hit_out[perm] = hit_flat
    evict_out[perm] = evict_flat
    return hit_out, evict_out


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
    hit, evict = lru_rounds(set_idx, blocks, writes, n_sets, associativity)
    return llc_counts(
        stream, hit, writes, np.ones(len(blocks), dtype=bool),
        int(np.count_nonzero(evict)), capacity_bytes, associativity,
        n_cores, mlp_window, mlp_ceiling,
    )


def filter_private_fast(trace: Trace, arch: ArchitectureConfig):
    """Batched replay of a trace through the per-core L1D/L2 levels.

    Mirrors :func:`repro.sim.hierarchy.filter_private_reference`
    event-for-event: identical LLC stream, per-core counters and
    directory statistics.
    """
    from repro.sim.hierarchy import CoreCounters, LLCStream, PrivateResult

    n_cores = arch.n_cores
    l1_nsets = check_geometry(
        arch.l1d.capacity_bytes, arch.l1d.block_bytes, arch.l1d.associativity
    )
    l2_nsets = check_geometry(
        arch.l2.capacity_bytes, arch.l2.block_bytes, arch.l2.associativity
    )
    l1_assoc = arch.l1d.associativity
    l2_assoc = arch.l2.associativity
    prefetch = arch.l2_next_line_prefetch
    miss = _MISS

    l1_sets: List[List[dict]] = [
        [dict() for _ in range(l1_nsets)] for _ in range(n_cores)
    ]
    l2_sets: List[List[dict]] = [
        [dict() for _ in range(l2_nsets)] for _ in range(n_cores)
    ]

    l1_hits = [0] * n_cores
    l1_misses = [0] * n_cores
    l2_hits = [0] * n_cores
    l2_misses = [0] * n_cores

    n_threads = max(1, trace.n_threads)
    use_directory = n_threads > 1

    out_blocks: List[int] = []
    out_writes: List[bool] = []
    out_cores: List[int] = []
    out_ipos: List[int] = []
    emit_block = out_blocks.append
    emit_write = out_writes.append
    emit_core = out_cores.append
    emit_ipos = out_ipos.append

    block_arr = trace.addresses >> np.uint64(BLOCK_BITS)
    core_arr = trace.thread_ids.astype(np.int64) % n_cores
    position_arr, instructions = _per_core_positions(core_arr, trace.gaps, n_cores)
    accesses = np.bincount(core_arr, minlength=n_cores).tolist()

    blocks = block_arr.tolist()
    writes = trace.writes.tolist()
    core_ids = core_arr.tolist()
    ipos_list = position_arr.tolist()
    l1_idx = (block_arr % np.uint64(l1_nsets)).tolist()
    l2_idx = (block_arr % np.uint64(l2_nsets)).tolist()

    # Directory state, inlined from FullMapDirectory (method-call and
    # stats-dataclass overhead is significant on the coherence path).
    # ``sharers_map`` stores a bare core id while a block has exactly one
    # sharer — the overwhelmingly common case — and only upgrades to a
    # set when a second core joins.
    sharers_map: dict = {}
    owner_map: dict = {}
    invalidations_sent = downgrades_sent = sharing_misses = 0

    if not use_directory:
        # Single-threaded loop: no coherence bookkeeping at all.
        for block, is_write, core, ipos, i1, i2 in zip(
            blocks, writes, core_ids, ipos_list, l1_idx, l2_idx
        ):
            lines1 = l1_sets[core][i1]
            dirty1 = lines1.pop(block, miss)
            if dirty1 is not miss:
                # L1 hit: refresh to MRU.
                lines1[block] = dirty1 or is_write
                l1_hits[core] += 1
                continue

            l1_misses[core] += 1
            l1_victim = None
            if len(lines1) >= l1_assoc:
                victim_tag = next(iter(lines1))
                if lines1.pop(victim_tag):
                    l1_victim = victim_tag
            lines1[block] = is_write

            core_l2 = l2_sets[core]
            if l1_victim is not None:
                # L1 dirty eviction drops into the private L2 (fill path).
                lines2 = core_l2[l1_victim % l2_nsets]
                if lines2.pop(l1_victim, miss) is miss and len(lines2) >= l2_assoc:
                    victim_tag = next(iter(lines2))
                    if lines2.pop(victim_tag):
                        emit_block(victim_tag)
                        emit_write(True)
                        emit_core(core)
                        emit_ipos(ipos)
                lines2[l1_victim] = True

            lines2 = core_l2[i2]
            dirty2 = lines2.pop(block, miss)
            if dirty2 is not miss:
                # L2 hit (demand accesses reach L2 as reads).
                lines2[block] = dirty2
                l2_hits[core] += 1
                continue
            l2_misses[core] += 1
            if len(lines2) >= l2_assoc:
                victim_tag = next(iter(lines2))
                if lines2.pop(victim_tag):
                    emit_block(victim_tag)
                    emit_write(True)
                    emit_core(core)
                    emit_ipos(ipos)
            lines2[block] = False
            emit_block(block)
            emit_write(False)
            emit_core(core)
            emit_ipos(ipos)
            if prefetch:
                next_block = block + 1
                lines2n = core_l2[next_block % l2_nsets]
                if next_block not in lines2n:
                    if len(lines2n) >= l2_assoc:
                        victim_tag = next(iter(lines2n))
                        if lines2n.pop(victim_tag):
                            emit_block(victim_tag)
                            emit_write(True)
                            emit_core(core)
                            emit_ipos(ipos)
                    lines2n[next_block] = False
                    emit_block(next_block)
                    emit_write(False)
                    emit_core(core)
                    emit_ipos(ipos)
    else:
        for block, is_write, core, ipos, i1, i2 in zip(
            blocks, writes, core_ids, ipos_list, l1_idx, l2_idx
        ):
            lines1 = l1_sets[core][i1]
            dirty1 = lines1.pop(block, miss)
            if dirty1 is not miss:
                # L1 hit: refresh to MRU.
                lines1[block] = dirty1 or is_write
                l1_hits[core] += 1
                if is_write:
                    # Exclusive directory fill: invalidate remote copies.
                    sharers = sharers_map.get(block)
                    owner_map[block] = core
                    if sharers is None:
                        sharers_map[block] = core
                    elif type(sharers) is int:
                        if sharers != core:
                            sharers_map[block] = core
                            invalidations_sent += 1
                            sharing_misses += 1
                            invalid1 = l1_sets[sharers][i1].pop(block, None)
                            invalid2 = l2_sets[sharers][i2].pop(block, None)
                            if invalid1 or invalid2:
                                emit_block(block)
                                emit_write(True)
                                emit_core(sharers)
                                emit_ipos(ipos)
                    else:
                        victims = [c for c in sharers if c != core]
                        sharers_map[block] = core
                        if victims:
                            invalidations_sent += len(victims)
                            sharing_misses += 1
                            for victim_core in victims:
                                invalid1 = l1_sets[victim_core][i1].pop(block, None)
                                invalid2 = l2_sets[victim_core][i2].pop(block, None)
                                if invalid1 or invalid2:
                                    emit_block(block)
                                    emit_write(True)
                                    emit_core(victim_core)
                                    emit_ipos(ipos)
                continue

            l1_misses[core] += 1
            l1_victim = None
            if len(lines1) >= l1_assoc:
                victim_tag = next(iter(lines1))
                if lines1.pop(victim_tag):
                    l1_victim = victim_tag
            lines1[block] = is_write

            core_l2 = l2_sets[core]
            if l1_victim is not None:
                # L1 dirty eviction drops into the private L2 (fill path).
                lines2 = core_l2[l1_victim % l2_nsets]
                if lines2.pop(l1_victim, miss) is miss and len(lines2) >= l2_assoc:
                    victim_tag = next(iter(lines2))
                    if lines2.pop(victim_tag):
                        emit_block(victim_tag)
                        emit_write(True)
                        emit_core(core)
                        emit_ipos(ipos)
                        # Directory eviction notice.
                        sharers = sharers_map.get(victim_tag)
                        if sharers is not None:
                            if type(sharers) is int:
                                if sharers == core:
                                    del sharers_map[victim_tag]
                            else:
                                sharers.discard(core)
                                if not sharers:
                                    del sharers_map[victim_tag]
                        if owner_map.get(victim_tag) == core:
                            del owner_map[victim_tag]
                lines2[l1_victim] = True

            lines2 = core_l2[i2]
            dirty2 = lines2.pop(block, miss)
            if dirty2 is not miss:
                # L2 hit (demand accesses reach L2 as reads).
                lines2[block] = dirty2
                l2_hits[core] += 1
            else:
                l2_misses[core] += 1
                if len(lines2) >= l2_assoc:
                    victim_tag = next(iter(lines2))
                    if lines2.pop(victim_tag):
                        emit_block(victim_tag)
                        emit_write(True)
                        emit_core(core)
                        emit_ipos(ipos)
                        sharers = sharers_map.get(victim_tag)
                        if sharers is not None:
                            if type(sharers) is int:
                                if sharers == core:
                                    del sharers_map[victim_tag]
                            else:
                                sharers.discard(core)
                                if not sharers:
                                    del sharers_map[victim_tag]
                        if owner_map.get(victim_tag) == core:
                            del owner_map[victim_tag]
                lines2[block] = False
                emit_block(block)
                emit_write(False)
                emit_core(core)
                emit_ipos(ipos)
                if prefetch:
                    next_block = block + 1
                    lines2n = core_l2[next_block % l2_nsets]
                    if next_block not in lines2n:
                        if len(lines2n) >= l2_assoc:
                            victim_tag = next(iter(lines2n))
                            if lines2n.pop(victim_tag):
                                emit_block(victim_tag)
                                emit_write(True)
                                emit_core(core)
                                emit_ipos(ipos)
                                sharers = sharers_map.get(victim_tag)
                                if sharers is not None:
                                    if type(sharers) is int:
                                        if sharers == core:
                                            del sharers_map[victim_tag]
                                    else:
                                        sharers.discard(core)
                                        if not sharers:
                                            del sharers_map[victim_tag]
                                if owner_map.get(victim_tag) == core:
                                    del owner_map[victim_tag]
                        lines2n[next_block] = False
                        emit_block(next_block)
                        emit_write(False)
                        emit_core(core)
                        emit_ipos(ipos)

            # Directory fill for the demand block.
            if is_write:
                sharers = sharers_map.get(block)
                owner_map[block] = core
                if sharers is None:
                    sharers_map[block] = core
                elif type(sharers) is int:
                    if sharers != core:
                        sharers_map[block] = core
                        invalidations_sent += 1
                        sharing_misses += 1
                        invalid1 = l1_sets[sharers][i1].pop(block, None)
                        invalid2 = l2_sets[sharers][i2].pop(block, None)
                        if invalid1 or invalid2:
                            emit_block(block)
                            emit_write(True)
                            emit_core(sharers)
                            emit_ipos(ipos)
                else:
                    victims = [c for c in sharers if c != core]
                    sharers_map[block] = core
                    if victims:
                        invalidations_sent += len(victims)
                        sharing_misses += 1
                        for victim_core in victims:
                            invalid1 = l1_sets[victim_core][i1].pop(block, None)
                            invalid2 = l2_sets[victim_core][i2].pop(block, None)
                            if invalid1 or invalid2:
                                emit_block(block)
                                emit_write(True)
                                emit_core(victim_core)
                                emit_ipos(ipos)
            else:
                owner = owner_map.get(block)
                if owner is not None and owner != core:
                    downgrades_sent += 1
                    del owner_map[block]
                    invalid1 = l1_sets[owner][i1].pop(block, None)
                    invalid2 = l2_sets[owner][i2].pop(block, None)
                    if invalid1 or invalid2:
                        emit_block(block)
                        emit_write(True)
                        emit_core(owner)
                        emit_ipos(ipos)
                sharers = sharers_map.get(block)
                if sharers is None:
                    sharers_map[block] = core
                elif type(sharers) is int:
                    if sharers != core:
                        sharers_map[block] = {sharers, core}
                else:
                    sharers.add(core)

    directory = FullMapDirectory(n_cores)
    directory.stats.invalidations_sent = invalidations_sent
    directory.stats.downgrades_sent = downgrades_sent
    directory.stats.sharing_misses = sharing_misses

    stream = LLCStream(
        blocks=np.array(out_blocks, dtype=np.uint64),
        writes=np.array(out_writes, dtype=bool),
        cores=np.array(out_cores, dtype=np.uint16),
        instr_positions=np.array(out_ipos, dtype=np.uint64),
    )
    counters = [
        CoreCounters(
            instructions=instructions[core],
            accesses=int(accesses[core]),
            l1_hits=l1_hits[core],
            l1_misses=l1_misses[core],
            l2_hits=l2_hits[core],
            l2_misses=l2_misses[core],
        )
        for core in range(n_cores)
    ]
    return PrivateResult(
        stream=stream,
        per_core=counters,
        directory=directory.stats,
        n_threads=n_threads,
    )
