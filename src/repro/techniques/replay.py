"""Technique-aware LLC replay.

Extends the plain LLC replay (:mod:`repro.sim.llc`) with the
:class:`~repro.techniques.base.Technique` hooks: set remapping (wear
leveling), writeback bypassing, device-level energy/latency factors,
technique-supplied cache variants (compacted-way compression) and
per-line write sizing.  Also tracks the wear distribution so the
endurance model can price each technique's lifetime effect.

Invariants
----------
- A bare :class:`~repro.techniques.base.Technique` replays through the
  plain :class:`~repro.sim.cache.SetAssocCache` with full-size writes,
  reproducing the baseline LLC bit-for-bit (``write_bytes`` is exactly
  ``total_writes * block_bytes``).
- ``compressed_writes + uncompressed_writes == wear.total_writes``:
  every data-array write is classified by whether it programmed fewer
  bytes than the block (the count-sum invariant
  :func:`repro.validate.guard.guard_compression` pins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.sim.cache import SetAssocCache
from repro.sim.hierarchy import LLCStream
from repro.sim.llc import LLCCounts, per_core_mlp
from repro.endurance.wear import WearSummary
from repro.techniques.base import Technique


@dataclass
class TechniqueOutcome:
    """Counts, wear, and technique side effects from one replay.

    ``write_bytes`` is the number of data-array bytes actually
    programmed — ``total_writes * block_bytes`` for full-size writes,
    less under compression — and drives both the energy scaling and the
    per-cell wear fraction of the lifetime forecast.  ``n_frames`` is
    the physical frame count of the replayed geometry (sets × ways);
    capacity-changing techniques hold *more lines* in the same frames,
    never more frames.
    """

    technique: str
    counts: LLCCounts
    wear: WearSummary
    bypassed_writes: int
    write_energy_factor: float
    write_latency_factor: float
    block_bytes: int = 64
    write_bytes: int = 0
    compressed_writes: int = 0
    uncompressed_writes: int = 0
    n_frames: int = 0
    mean_resident_lines: float = 0.0

    @property
    def extra_dram_writes(self) -> int:
        """Writebacks redirected to DRAM by bypassing."""
        return self.bypassed_writes

    @property
    def write_bytes_fraction(self) -> float:
        """Bytes programmed over the full-size equivalent.

        1.0 means no compression; this is the ``cell_write_fraction``
        fed to the lifetime forecast and the ``write_energy_scale`` fed
        to pricing.
        """
        full = self.wear.total_writes * self.block_bytes
        if full == 0:
            return 1.0
        return self.write_bytes / full

    @property
    def effective_capacity_bytes(self) -> float:
        """Measured effective capacity: mean resident lines per set
        times the line size, across all sets."""
        return self.mean_resident_lines * self.wear.n_sets * self.block_bytes


def replay_with_technique(
    stream: LLCStream,
    technique: Technique,
    capacity_bytes: int,
    associativity: int = 16,
    block_bytes: int = 64,
    n_cores: int = 4,
    mlp_window: int = 128,
    mlp_ceiling: float = 6.0,
) -> TechniqueOutcome:
    """Replay an LLC stream under a management technique.

    Set remapping is applied by translating each block to a synthetic
    block id whose set index is the technique's choice; rotation-style
    levelers therefore shift residency over time, which costs the same
    transition misses the real schemes pay.

    The technique may supply its own cache variant via ``make_cache``
    (compacted-way compression does); caches declaring ``SIZE_AWARE``
    receive each access's compressed line size and may evict several
    dirty victims on one miss.

    Per-core MLP is estimated from the read misses' instruction
    positions exactly as :func:`repro.sim.llc.simulate_llc` does, with
    the same ``mlp_window`` and ``mlp_ceiling``.
    """
    cache = technique.make_cache(capacity_bytes, block_bytes, associativity)
    if cache is None:
        cache = SetAssocCache(capacity_bytes, block_bytes, associativity)
    size_aware = bool(getattr(cache, "SIZE_AWARE", False))
    n_sets = cache.n_sets
    counts = LLCCounts(capacity_bytes=capacity_bytes, associativity=associativity)
    set_writes = np.zeros(n_sets, dtype=np.int64)
    line_writes: Dict[int, int] = {}
    total_writes = 0
    write_bytes = 0
    compressed_writes = 0
    bypassed = 0

    read_hits = [0] * n_cores
    read_misses = [0] * n_cores
    read_miss = np.zeros(len(stream), dtype=bool)

    blocks = stream.blocks
    writes = stream.writes
    cores = stream.cores

    for i in range(len(stream)):
        block = int(blocks[i])
        core = int(cores[i])
        mapped_set = technique.map_set(block, n_sets)
        # Same tag space, technique-chosen set: encode as a block id
        # whose modulo lands in the mapped set.
        mapped = (block // n_sets) * n_sets + mapped_set
        # Sized from the TRUE block address: the mapped id shifts with
        # leveling rotation, but a line's compressibility must not.
        size = technique.line_size_bytes(block, block_bytes)
        if bool(writes[i]):
            if technique.should_bypass_write(block):
                bypassed += 1
                counts.dirty_evictions += 1  # goes straight to DRAM
                continue
            if size_aware:
                outcome = cache.access(mapped, True, size)
                counts.dirty_evictions += len(outcome.dirty_victims)
            else:
                outcome = cache.access(mapped, True)
                if outcome.dirty_victim is not None:
                    counts.dirty_evictions += 1
            counts.write_accesses += 1
            if outcome.hit:
                counts.write_hits += 1
            else:
                counts.write_misses += 1
            technique.observe_write(block)
            total_writes += 1
            write_bytes += size
            if size < block_bytes:
                compressed_writes += 1
            set_writes[mapped_set] += 1
            line_writes[mapped] = line_writes.get(mapped, 0) + 1
        else:
            technique.observe_read(block)
            if size_aware:
                outcome = cache.access(mapped, False, size)
                counts.dirty_evictions += len(outcome.dirty_victims)
            else:
                outcome = cache.access(mapped, False)
                if outcome.dirty_victim is not None:
                    counts.dirty_evictions += 1
            counts.read_lookups += 1
            if outcome.hit:
                counts.read_hits += 1
                read_hits[core] += 1
            else:
                counts.read_misses += 1
                read_misses[core] += 1
                read_miss[i] = True
                # The demand fill programs the array too.
                technique.observe_write(block)
                total_writes += 1
                write_bytes += size
                if size < block_bytes:
                    compressed_writes += 1
                set_writes[mapped_set] += 1
                line_writes[mapped] = line_writes.get(mapped, 0) + 1

    counts.per_core_read_hits = read_hits
    counts.per_core_read_misses = read_misses
    counts.per_core_mlp = per_core_mlp(
        stream, read_miss, n_cores, mlp_window, mlp_ceiling
    )

    wear = WearSummary(
        n_sets=n_sets,
        associativity=associativity,
        total_writes=total_writes,
        set_writes=set_writes,
        hottest_line_writes=max(line_writes.values()) if line_writes else 0,
    )
    return TechniqueOutcome(
        technique=technique.name,
        counts=counts,
        wear=wear,
        bypassed_writes=bypassed,
        write_energy_factor=technique.write_energy_factor(),
        write_latency_factor=technique.write_latency_factor(),
        block_bytes=block_bytes,
        write_bytes=write_bytes,
        compressed_writes=compressed_writes,
        uncompressed_writes=total_writes - compressed_writes,
        n_frames=n_sets * associativity,
        mean_resident_lines=float(
            getattr(cache, "mean_resident_lines", associativity)
        ),
    )
