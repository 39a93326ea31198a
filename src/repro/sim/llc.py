"""Shared LLC simulation over the post-L2 stream.

Replays an :class:`~repro.sim.hierarchy.LLCStream` through one shared
set-associative cache and produces the event counts the timing and
energy models consume.  Geometry (capacity/associativity/block) is the
only technology-dependent input — latencies and energies are applied
afterwards — so one replay serves every LLC technology with the same
capacity (all of fixed-capacity, and each capacity class of fixed-area).

Also estimates per-core memory-level parallelism (MLP) by clustering
demand-miss instruction positions within a ROB-sized window: misses
whose issuing instructions fit inside one window overlap in the
out-of-order engine, so their DRAM latencies are paid once per cluster,
not once per miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import SimulationError
from repro.obs import metrics as _metrics
from repro.sim.hierarchy import LLCStream
from repro.sim.replacement import make_cache


@dataclass
class LLCCounts:
    """Event counts from one LLC replay.

    ``fills`` counts block installations into the data array (every miss
    allocates); for an NVM LLC each fill is a *write* of the data array
    and is charged write latency/energy — this is what makes high-mpki
    workloads expensive on PCRAM even when the program itself rarely
    stores.
    """

    capacity_bytes: int
    associativity: int
    read_lookups: int = 0
    read_hits: int = 0
    read_misses: int = 0
    write_accesses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    dirty_evictions: int = 0
    per_core_read_hits: List[int] = field(default_factory=list)
    per_core_read_misses: List[int] = field(default_factory=list)
    per_core_mlp: List[float] = field(default_factory=list)

    @property
    def fills(self) -> int:
        """Data-array installations (one per miss, write-allocate)."""
        return self.read_misses + self.write_misses

    @property
    def data_writes(self) -> int:
        """All data-array write operations: writeback hits, writeback
        allocations and demand fills."""
        return self.write_accesses + self.read_misses

    @property
    def dram_reads(self) -> int:
        """Blocks fetched from DRAM (demand misses only: writeback
        allocations install full blocks without a fetch)."""
        return self.read_misses

    @property
    def dram_writes(self) -> int:
        """Dirty blocks written back to DRAM."""
        return self.dirty_evictions

    @property
    def miss_rate(self) -> float:
        """Demand miss rate."""
        return self.read_misses / self.read_lookups if self.read_lookups else 0.0

    def mpki(self, total_instructions: int) -> float:
        """Demand LLC misses per kilo-instruction (Table V's metric)."""
        if total_instructions <= 0:
            raise SimulationError("instruction count must be positive")
        return 1000.0 * self.read_misses / total_instructions


def estimate_mlp(
    miss_positions: np.ndarray, window: int, ceiling: float
) -> float:
    """Cluster miss instruction-positions into ROB windows.

    Returns mean misses per cluster, clamped to ``[1, ceiling]``.
    """
    n = len(miss_positions)
    if n == 0:
        return 1.0
    if n == 1:
        return 1.0
    gaps = np.diff(miss_positions.astype(np.int64))
    clusters = 1 + int((gaps > window).sum())
    return float(min(ceiling, max(1.0, n / clusters)))


def per_core_mlp(
    stream: LLCStream, read_miss: np.ndarray, n_cores: int,
    window: int, ceiling: float,
) -> List[float]:
    """:func:`estimate_mlp` per core from a stream-order read-miss mask."""
    cores = np.asarray(stream.cores, dtype=np.int64)
    positions = np.asarray(stream.instr_positions)
    return [
        estimate_mlp(
            positions[read_miss & (cores == c)].astype(np.uint64),
            window, ceiling,
        )
        for c in range(n_cores)
    ]


def simulate_llc(
    stream: LLCStream,
    capacity_bytes: int,
    associativity: int = 16,
    block_bytes: int = 64,
    n_cores: int = 4,
    mlp_window: int = 128,
    mlp_ceiling: float = 6.0,
    policy: str = "lru",
) -> LLCCounts:
    """Replay the LLC stream through one shared cache geometry.

    ``policy`` selects the replacement policy (lru/random/srrip); the
    paper's configuration is LRU, which replays as vector rounds
    (:func:`repro.sim.engine.simulate_llc_vector`).  Other policies take
    the per-access loop, :func:`simulate_llc_reference`, which is also
    the LRU rounds' oracle.

    When run metrics are enabled (:mod:`repro.obs`), the replay is
    wrapped in a ``sim.llc_replay`` span and the event totals — lookups,
    hits/misses split by read/write, dirty writebacks to DRAM — are
    recorded.
    """
    from repro.sim.engine import simulate_llc_vector

    geometry = dict(
        associativity=associativity,
        block_bytes=block_bytes,
        n_cores=n_cores,
        mlp_window=mlp_window,
        mlp_ceiling=mlp_ceiling,
    )
    with _metrics.span("sim.llc_replay"):
        if policy == "lru":
            counts = simulate_llc_vector(stream, capacity_bytes, **geometry)
        else:
            counts = simulate_llc_reference(
                stream, capacity_bytes, policy=policy, **geometry
            )
    if _metrics.enabled():
        _metrics.counter_add("sim.llc.accesses", len(stream))
        _metrics.counter_add("sim.llc.read_lookups", counts.read_lookups)
        _metrics.counter_add("sim.llc.read_hits", counts.read_hits)
        _metrics.counter_add("sim.llc.read_misses", counts.read_misses)
        _metrics.counter_add("sim.llc.write_hits", counts.write_hits)
        _metrics.counter_add("sim.llc.write_misses", counts.write_misses)
        _metrics.counter_add("sim.llc.dirty_evictions", counts.dirty_evictions)
    return counts


def simulate_llc_reference(
    stream: LLCStream,
    capacity_bytes: int,
    associativity: int = 16,
    block_bytes: int = 64,
    n_cores: int = 4,
    mlp_window: int = 128,
    mlp_ceiling: float = 6.0,
    policy: str = "lru",
) -> LLCCounts:
    """The per-access LLC replay (any replacement policy): the semantic
    ground truth :func:`simulate_llc` must match on every field."""
    cache = make_cache(capacity_bytes, block_bytes, associativity, policy)
    counts = LLCCounts(capacity_bytes=capacity_bytes, associativity=associativity)
    read_hits = [0] * n_cores
    read_misses = [0] * n_cores
    miss_positions: List[List[int]] = [[] for _ in range(n_cores)]

    blocks = stream.blocks
    writes = stream.writes
    cores = stream.cores
    positions = stream.instr_positions

    for i in range(len(stream)):
        block = int(blocks[i])
        core = int(cores[i])
        if bool(writes[i]):
            outcome = cache.access(block, True)
            counts.write_accesses += 1
            if outcome.hit:
                counts.write_hits += 1
            else:
                counts.write_misses += 1
            if outcome.dirty_victim is not None:
                counts.dirty_evictions += 1
        else:
            outcome = cache.access(block, False)
            counts.read_lookups += 1
            if outcome.hit:
                counts.read_hits += 1
                read_hits[core] += 1
            else:
                counts.read_misses += 1
                read_misses[core] += 1
                miss_positions[core].append(int(positions[i]))
            if outcome.dirty_victim is not None:
                counts.dirty_evictions += 1

    counts.per_core_read_hits = read_hits
    counts.per_core_read_misses = read_misses
    counts.per_core_mlp = [
        estimate_mlp(np.array(p, dtype=np.uint64), mlp_window, mlp_ceiling)
        for p in miss_positions
    ]
    return counts
