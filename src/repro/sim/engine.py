"""Batched and vectorized cache-replay engines.

The reference simulators (:mod:`repro.sim.hierarchy`,
:mod:`repro.sim.llc`) spend ~95% of an experiment run in two pure-Python
per-access loops built on :class:`~repro.sim.cache.SetAssocCache`.  Each
access pays for numpy scalar indexing, a method dispatch, an
:class:`~repro.sim.cache.AccessOutcome` allocation and several dataclass
attribute updates — none of which change the simulated events.

Two engines share one contract (bit-identical events):

- ``reference`` — the dict-of-caches per-access loops, any replacement
  policy; the semantic ground truth and the differential-test oracle.
- ``vector`` (the default) — the private hierarchy replays through
  :func:`filter_private_fast`, a batched flat loop (3–5x: its
  L1/L2/coherence interplay is control-flow-bound, not replay-bound),
  and the shared LLC replays the whole trace as numpy rounds
  (:func:`simulate_llc_vector`, ~10–18x over reference): accesses are
  grouped by set index once and resolved in *rounds* — round ``t``
  replays the ``t``-th access of every set simultaneously with
  array-based tag matching and an age-based LRU stack, so the
  Python-level loop runs ``max accesses-per-set`` times instead of once
  per access.

``fast``, the name of a retired batched LLC loop, is still accepted as a
deprecated alias: :func:`resolve_engine` maps it to ``vector``, so
counters and manifests record ``vector``.

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

The engines are *bit-identical* by construction: every branch mirrors a
branch of ``SetAssocCache.access``/``fill``/``invalidate`` and
``FullMapDirectory.on_fill``/``on_evict`` (the property suite in
``tests/property/test_engine_equivalence.py`` enforces this on
randomized streams, including the prefetch ``fill`` and coherence
``invalidate`` paths).  Selection is via the ``engine=`` argument of
:func:`repro.sim.hierarchy.filter_private` /
:func:`repro.sim.llc.simulate_llc`, defaulting to the value of the
``REPRO_SIM_ENGINE`` environment variable (``vector`` when unset).

Invariants
----------

- **Bit-identical outputs.** For every trace and architecture, the
  vector and reference engines produce equal
  :class:`~repro.sim.hierarchy.PrivateResult` and
  :class:`~repro.sim.llc.LLCCounts` — same event counts, same LLC
  stream, same directory statistics, in the same order, for any block
  id in the uint64 range.  Any divergence is a bug; bump
  :data:`repro.sim.replay_cache.CACHE_VERSION` whenever replay semantics
  intentionally change.
- **LRU only.** The vector LLC path implements LRU; non-LRU policies
  are always routed to the reference loop by the dispatcher.
- **No per-access observability.** The engine loops carry no metrics
  hooks — instrumentation lives in the dispatchers
  (:func:`~repro.sim.hierarchy.filter_private`,
  :func:`~repro.sim.llc.simulate_llc`), which record the already-computed
  totals after the loop, so enabling :mod:`repro.obs` never slows the
  hot path.
"""

from __future__ import annotations

import os
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.config import ArchitectureConfig
from repro.sim.directory import FullMapDirectory
from repro.trace.access import BLOCK_BITS
from repro.trace.stream import Trace

#: Engine names accepted by the ``engine=`` switches.
ENGINES = ("reference", "vector")

#: Deprecated engine names and the engine each resolves to.
ENGINE_ALIASES = {"fast": "vector"}

#: Environment variable overriding the default engine.
ENGINE_ENV = "REPRO_SIM_ENGINE"

#: Sentinel distinguishing "absent" from a stored False dirty flag.
_MISS = object()


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an ``engine=`` argument to a concrete engine name.

    ``None`` falls back to ``$REPRO_SIM_ENGINE``, then to ``"vector"``;
    the deprecated ``"fast"`` resolves to ``"vector"``.
    """
    if engine is None:
        engine = os.environ.get(ENGINE_ENV) or "vector"
    engine = ENGINE_ALIASES.get(engine, engine)
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; known: {', '.join(ENGINES)}"
        )
    return engine


def _check_geometry(capacity_bytes: int, block_bytes: int, associativity: int) -> int:
    """Validate geometry exactly like ``SetAssocCache``; returns n_sets."""
    if capacity_bytes % (block_bytes * associativity):
        raise ConfigurationError("capacity must be a whole number of sets")
    n_sets = capacity_bytes // (block_bytes * associativity)
    if n_sets <= 0:
        raise ConfigurationError("cache must have at least one set")
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

    Mirrors :func:`repro.sim.llc.simulate_llc` with ``policy="lru"``;
    returns an identical :class:`~repro.sim.llc.LLCCounts` to the
    reference engine for any uint64 block ids (the property suite pins
    this).

    Algorithm — *rounds lockstep over sets*:

    1. Group accesses by set index and rank sets by descending access
       count, so the sets still active in round ``t`` (those with more
       than ``t`` accesses) are exactly state rows ``[0, k_t)``.
    2. Build the round-major permutation (sort by occurrence-index,
       then set rank) with **one** stable sort: after sorting by set
       rank, the destination of the ``j``-th access of the ``i``-th
       busiest set is ``offsets[j] + i`` — pure arithmetic.
    3. Replay round by round on flat state arrays ``tags`` / ``dirty``
       / ``age`` of shape ``(n_rows * assoc,)``, all zero at the start.
       The LRU victim is ``argmin(age)``: empty ways carry age 0 and
       fill lowest-index first, exactly the reference engine's install
       order, and evicting an empty way is indistinguishable from
       installing into it because an empty way is never dirty.  Since
       the LLC never invalidates, the filled ways of a row are always a
       prefix of it, so the first tag match (``argmax``) reaches a
       filled way holding the block before any empty way whose tag 0
       happens to equal it; a hit is a tag match on a way with non-zero
       age.  No tag value is reserved, so every uint64 block id is
       valid.
    4. Scatter per-round hit/eviction flags back to stream order and
       derive every :class:`~repro.sim.llc.LLCCounts` field — including
       per-core splits and MLP miss positions, which depend only on
       stream-ordered outcome flags — with bincounts and masks.

    The per-access work is ``O(assoc)`` like the reference loop, but the
    interpreter loop runs ``max accesses-per-set`` times (tens) instead
    of once per access (tens of thousands).
    """
    from repro.sim.llc import LLCCounts, estimate_mlp

    n_sets = _check_geometry(capacity_bytes, block_bytes, associativity)
    assoc = associativity
    blocks = np.ascontiguousarray(stream.blocks, dtype=np.uint64)
    writes = np.ascontiguousarray(stream.writes, dtype=bool)
    n = len(blocks)

    hit_out = np.zeros(n, dtype=bool)
    evict_out = np.zeros(n, dtype=bool)

    if n:
        set_idx = (blocks % np.uint64(n_sets)).astype(np.int64)
        if n_sets <= 2 * n:
            # Dense: one state row per set, occupancy from bincount.
            set_counts = np.bincount(set_idx, minlength=n_sets)
            set_cid = set_idx
            n_rows = n_sets
        else:
            # Sparse (huge cache, short stream): compact to touched sets
            # so state stays O(accesses), not O(cache).
            sets_u, set_cid, set_counts = np.unique(
                set_idx, return_inverse=True, return_counts=True
            )
            n_rows = len(sets_u)

        # Rank sets by descending access count so round t's active rows
        # are exactly the contiguous slice [0, k_t).
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
        max_m = int(counts_desc[0])
        # k_per_round[t] = number of sets with more than t accesses.
        k_per_round = np.searchsorted(
            -counts_desc, -np.arange(max_m), side="left"
        )
        offsets = np.r_[0, np.cumsum(k_per_round)]

        # Round-major permutation via one stable sort by set rank: the
        # j-th access of the i-th busiest set lands at offsets[j] + i.
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
        dest = offsets[pos_sorted] + row_sorted
        perm = np.empty(n, dtype=np.int64)
        perm[dest] = order
        bs = blocks[perm]
        ws = writes[perm]

        # Flat per-way state, row-major (n_rows, assoc).
        tags = np.zeros(n_rows * assoc, dtype=np.uint64)
        dirty = np.zeros(n_rows * assoc, dtype=bool)
        age = np.zeros(n_rows * assoc, dtype=np.uint32)
        tags2 = tags.reshape(n_rows, assoc)
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

        for t in range(1, max_m):
            k = int(k_per_round[t])
            lo, hi = int(offsets[t]), int(offsets[t + 1])
            b = bs[lo:hi]
            hitm = tags2[:k] == b[:, None]
            way = row_base[:k] + hitm.argmax(axis=1)
            hit = (tags[way] == b) & (age[way] != 0)
            victim = age2[:k].argmin(axis=1)
            flat = np.where(hit, way, row_base[:k] + victim)
            old_d = dirty[flat]
            hit_flat[lo:hi] = hit
            evict_flat[lo:hi] = ~hit & old_d
            tags[flat] = b
            dirty[flat] = (hit & old_d) | ws[lo:hi]
            age[flat] = t + 1

        hit_out[perm] = hit_flat
        evict_out[perm] = evict_flat

    reads = ~writes
    read_hit = hit_out & reads
    read_miss = ~hit_out & reads
    cores = np.asarray(stream.cores, dtype=np.int64)
    positions = np.asarray(stream.instr_positions)

    counts = LLCCounts(capacity_bytes=capacity_bytes, associativity=associativity)
    counts.read_hits = int(read_hit.sum())
    counts.read_misses = int(read_miss.sum())
    counts.read_lookups = counts.read_hits + counts.read_misses
    counts.write_hits = int((hit_out & writes).sum())
    counts.write_misses = int((~hit_out & writes).sum())
    counts.write_accesses = counts.write_hits + counts.write_misses
    counts.dirty_evictions = int(evict_out.sum())
    counts.per_core_read_hits = np.bincount(
        cores[read_hit], minlength=n_cores
    ).tolist()
    counts.per_core_read_misses = np.bincount(
        cores[read_miss], minlength=n_cores
    ).tolist()
    counts.per_core_mlp = [
        estimate_mlp(
            positions[read_miss & (cores == c)].astype(np.uint64),
            mlp_window,
            mlp_ceiling,
        )
        for c in range(n_cores)
    ]
    return counts


def filter_private_fast(trace: Trace, arch: ArchitectureConfig):
    """Batched replay of a trace through the per-core L1D/L2 levels.

    Mirrors :func:`repro.sim.hierarchy.filter_private` event-for-event:
    identical LLC stream, per-core counters and directory statistics.
    """
    from repro.sim.hierarchy import CoreCounters, LLCStream, PrivateResult

    n_cores = arch.n_cores
    l1_nsets = _check_geometry(
        arch.l1d.capacity_bytes, arch.l1d.block_bytes, arch.l1d.associativity
    )
    l2_nsets = _check_geometry(
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
