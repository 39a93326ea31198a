"""Private cache levels: filtering a trace down to LLC traffic.

Each core owns a private L1D and L2 (Table IV).  This module replays a
trace through the private levels once and emits the *LLC stream* — the
demand reads (L2 misses) and writes (L2 dirty writebacks, plus coherence
writebacks) the shared LLC actually sees — together with per-core
counters the timing model needs.

The private levels are technology-independent (always SRAM), so this
expensive pass runs once per workload and its output is reused across
every LLC technology and configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.obs import metrics as _metrics
from repro.sim.cache import SetAssocCache
from repro.sim.config import ArchitectureConfig
from repro.sim.directory import DirectoryStats, FullMapDirectory
from repro.trace.access import BLOCK_BITS
from repro.trace.stream import Trace


@dataclass
class CoreCounters:
    """Per-core instruction and private-cache counters."""

    instructions: int = 0
    accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0


@dataclass
class LLCStream:
    """The access stream presented to the shared LLC.

    Columns are parallel arrays: block address, write flag (True for
    writebacks into the LLC), issuing core, and the issuing core's
    instruction position at the time (used to estimate memory-level
    parallelism from miss clustering).
    """

    blocks: np.ndarray
    writes: np.ndarray
    cores: np.ndarray
    instr_positions: np.ndarray

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def n_reads(self) -> int:
        """Demand reads reaching the LLC."""
        return int(len(self) - self.writes.sum())

    @property
    def n_writes(self) -> int:
        """Writeback writes reaching the LLC."""
        return int(self.writes.sum())


@dataclass
class PrivateResult:
    """Outcome of replaying a trace through the private levels."""

    stream: LLCStream
    per_core: List[CoreCounters]
    directory: DirectoryStats
    n_threads: int

    @property
    def total_instructions(self) -> int:
        """Instructions across all cores."""
        return sum(c.instructions for c in self.per_core)

    @property
    def total_accesses(self) -> int:
        """Memory accesses across all cores."""
        return sum(c.accesses for c in self.per_core)


def filter_private(trace: Trace, arch: ArchitectureConfig) -> PrivateResult:
    """Replay a trace through per-core L1D/L2 and emit the LLC stream.

    Threads map to cores by id modulo ``arch.n_cores``.  Multi-threaded
    traces additionally exercise the full-map directory: stores to blocks
    shared across cores invalidate remote copies, and modified remote
    copies are written back through the LLC.  Every call replays with
    :func:`repro.sim.engine.filter_private_rounds` — one scalar pass over
    the L1s and the shared blocks' directory, then the L2s as set
    rounds — whose oracle is :func:`filter_private_reference`.

    When run metrics are enabled (:mod:`repro.obs`), the replay is
    wrapped in a ``sim.private_replay`` span and the per-level event
    totals — accesses, L1/L2 hits and misses, emitted LLC stream traffic,
    coherence invalidations — are recorded.
    """
    from repro.sim.engine import filter_private_rounds

    with _metrics.span("sim.private_replay"):
        result = filter_private_rounds(trace, arch)
    if _metrics.enabled():
        _metrics.counter_add("sim.private.accesses", len(trace))
        _metrics.counter_add(
            "sim.l1.hits", sum(c.l1_hits for c in result.per_core)
        )
        _metrics.counter_add(
            "sim.l1.misses", sum(c.l1_misses for c in result.per_core)
        )
        _metrics.counter_add(
            "sim.l2.hits", sum(c.l2_hits for c in result.per_core)
        )
        _metrics.counter_add(
            "sim.l2.misses", sum(c.l2_misses for c in result.per_core)
        )
        _metrics.counter_add("sim.llc_stream.reads", result.stream.n_reads)
        _metrics.counter_add("sim.llc_stream.writebacks", result.stream.n_writes)
        _metrics.counter_add(
            "sim.directory.invalidations", result.directory.invalidations_sent
        )
    return result


def filter_private_reference(
    trace: Trace, arch: ArchitectureConfig
) -> PrivateResult:
    """The dict-of-caches private-level replay: the semantic ground
    truth :func:`filter_private` must match event for event."""
    n_cores = arch.n_cores
    l1 = [
        SetAssocCache(arch.l1d.capacity_bytes, arch.l1d.block_bytes, arch.l1d.associativity)
        for _ in range(n_cores)
    ]
    l2 = [
        SetAssocCache(arch.l2.capacity_bytes, arch.l2.block_bytes, arch.l2.associativity)
        for _ in range(n_cores)
    ]
    counters = [CoreCounters() for _ in range(n_cores)]
    n_threads = max(1, trace.n_threads)
    use_directory = n_threads > 1
    directory = FullMapDirectory(n_cores)

    out_blocks: List[int] = []
    out_writes: List[bool] = []
    out_cores: List[int] = []
    out_ipos: List[int] = []

    def emit(block: int, is_write: bool, core: int, ipos: int) -> None:
        out_blocks.append(block)
        out_writes.append(is_write)
        out_cores.append(core)
        out_ipos.append(ipos)

    addresses = trace.addresses
    writes = trace.writes
    thread_ids = trace.thread_ids
    gaps = trace.gaps

    for i in range(len(trace)):
        block = int(addresses[i]) >> BLOCK_BITS
        is_write = bool(writes[i])
        core = int(thread_ids[i]) % n_cores
        counter = counters[core]
        counter.instructions += int(gaps[i]) + 1
        counter.accesses += 1
        ipos = counter.instructions

        outcome1 = l1[core].access(block, is_write)
        if outcome1.dirty_victim is not None:
            # L1 dirty eviction drops into the private L2.
            spilled = l2[core].fill(outcome1.dirty_victim, dirty=True)
            if spilled is not None:
                emit(spilled, True, core, ipos)
                if use_directory:
                    directory.on_evict(core, spilled)
        if outcome1.hit:
            counter.l1_hits += 1
            if is_write and use_directory:
                _propagate_coherence(
                    directory, l1, l2, core, block, True, emit, ipos
                )
            continue

        counter.l1_misses += 1
        outcome2 = l2[core].access(block, False)
        if outcome2.dirty_victim is not None:
            emit(outcome2.dirty_victim, True, core, ipos)
            if use_directory:
                directory.on_evict(core, outcome2.dirty_victim)
        if outcome2.hit:
            counter.l2_hits += 1
        else:
            counter.l2_misses += 1
            emit(block, False, core, ipos)
        if use_directory:
            _propagate_coherence(
                directory, l1, l2, core, block, is_write, emit, ipos
            )

    stream = LLCStream(
        blocks=np.array(out_blocks, dtype=np.uint64),
        writes=np.array(out_writes, dtype=bool),
        cores=np.array(out_cores, dtype=np.uint16),
        instr_positions=np.array(out_ipos, dtype=np.uint64),
    )
    return PrivateResult(
        stream=stream,
        per_core=counters,
        directory=directory.stats,
        n_threads=n_threads,
    )


def _propagate_coherence(directory, l1, l2, core, block, exclusive, emit, ipos):
    """Apply a directory transaction and its invalidation fallout."""
    victims = directory.on_fill(core, block, exclusive=exclusive)
    for victim_core in victims:
        dirty = l1[victim_core].invalidate(block)
        dirty = l2[victim_core].invalidate(block) or dirty
        if dirty:
            # Modified remote copy is written back through the LLC.
            emit(block, True, victim_core, ipos)
