"""Technique-aware LLC replay.

Extends the plain LLC replay (:mod:`repro.sim.llc`) with the
:class:`~repro.techniques.base.Technique` family: set rotation (wear
leveling), writeback bypassing, device-level energy/latency factors,
compacted ways (compression) and per-line write sizing.  Also tracks
the wear distribution so the endurance model can price each
technique's lifetime effect.

Both paths read only what a technique *declares* (``leveling_period``,
``tag_factor``, ``line_sizes``, ``bypasses_writes`` and the two
factors) and run its ``observe_read`` / ``should_bypass_write`` hooks
in stream order:

- :func:`replay_with_technique` — production: the vector rounds of
  :mod:`repro.sim.engine`;
- :func:`replay_with_technique_reference` — the same declarations one
  access at a time over a :class:`~repro.sim.cache.SetAssocCache`, or a
  :class:`~repro.techniques.compression.CompactedWayCache` when a tag
  factor is declared: the oracle the production path must equal on
  every outcome field and every technique counter
  (``tests/property/test_replay_conformance.py``).

Invariants
----------
- A bare :class:`~repro.techniques.base.Technique` reproduces the
  baseline LLC bit-for-bit (``write_bytes`` is exactly
  ``total_writes * block_bytes``).
- ``compressed_writes + uncompressed_writes == wear.total_writes``:
  every data-array write is classified by whether it programmed fewer
  bytes than the block (the count-sum invariant
  :func:`repro.validate.guard.guard_compression` pins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import CompressionError, ConfigurationError, SimulationError
from repro.sim.cache import SetAssocCache
from repro.sim.hierarchy import LLCStream
from repro.sim.llc import LLCCounts, per_core_mlp
from repro.endurance.wear import WearSummary, tally_wear
from repro.techniques.base import Technique
from repro.techniques.compression import CompactedWayCache


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

    Returns exactly what :func:`replay_with_technique_reference` returns
    and leaves the technique's counters where that loop leaves them,
    but replays whole streams as vector rounds:

    - every block is sized once, from its true address, by the
      technique's ``line_sizes``;
    - a technique that ``bypasses_writes`` runs its ``observe_read`` /
      ``should_bypass_write`` hooks in one pre-pass, and the replay
      drops the bypassed writes (exact, because ``observe_read`` sees
      every read, hit or miss);
    - without leveling, one replay: :func:`repro.sim.engine.lru_rounds`,
      or :func:`repro.sim.engine.compacted_rounds` when the technique
      declares a ``tag_factor``;
    - with a ``leveling_period``, the replay maps each block under an
      offset schedule, re-derives the schedule from the replay's
      cumulative data writes (writes plus read-miss fills) and repeats
      until the schedule stops changing (see :func:`_leveled`).

    Per-core MLP is estimated from the read misses' instruction
    positions exactly as :func:`repro.sim.llc.simulate_llc` does, with
    the same ``mlp_window`` and ``mlp_ceiling``.
    """
    from repro.sim import engine

    compacted = technique.tag_factor is not None
    n_sets = engine.check_geometry(
        capacity_bytes, block_bytes, associativity,
        CompressionError if compacted else ConfigurationError,
    )
    blocks = np.ascontiguousarray(stream.blocks, dtype=np.uint64)
    writes = np.ascontiguousarray(stream.writes, dtype=bool)
    # Sized from the TRUE block address: the mapped id shifts with
    # leveling rotation, but a line's compressibility must not.
    sizes = technique.line_sizes(blocks, block_bytes)
    kept = np.ones(len(blocks), dtype=bool)
    if technique.bypasses_writes:
        kept[_bypassed(technique, blocks, writes)] = False
    kept_blocks, kept_writes, kept_sizes = blocks[kept], writes[kept], sizes[kept]

    def rounds(set_idx, tags):
        """``(hit, dirty victims, lines resident or None)`` per access."""
        if compacted:
            return engine.compacted_rounds(
                set_idx, tags, kept_writes, kept_sizes, n_sets,
                associativity, block_bytes, technique.tag_factor,
            )
        hit, evict, _ = engine.lru_rounds(
            set_idx, tags, kept_writes, n_sets, associativity
        )
        return hit, evict, None

    home = (kept_blocks % np.uint64(n_sets)).astype(np.int64)
    if technique.leveling_period is None:
        set_idx, tags = home, kept_blocks
        hit, victims, resident = rounds(set_idx, tags)
        wrote = kept_writes | ~hit
        lines = tags[wrote]
    else:
        # Within a set, the mapped id (block // n_sets) * n_sets + set
        # is its quotient: a uint64 tag that never overflows.
        tags = kept_blocks // np.uint64(n_sets)
        set_idx, (hit, victims, resident) = _leveled(
            technique, home, kept_writes, n_sets, lambda s: rounds(s, tags)
        )
        wrote = kept_writes | ~hit
        _, tag_rank = np.unique(tags[wrote], return_inverse=True)
        lines = tag_rank * n_sets + set_idx[wrote]

    written_sizes = kept_sizes[wrote]
    total_writes = len(written_sizes)
    compressed_writes = int(np.count_nonzero(written_sizes < block_bytes))
    n_bypassed = len(blocks) - len(kept_blocks)
    stream_hit = np.zeros(len(blocks), dtype=bool)
    stream_hit[kept] = hit
    counts = engine.llc_counts(
        stream, stream_hit, writes, kept,
        # Bypassed writebacks go straight to DRAM.
        int(victims.sum()) + n_bypassed,
        capacity_bytes, associativity, n_cores, mlp_window, mlp_ceiling,
    )
    if resident is None:
        mean_resident_lines = float(associativity)
    else:
        mean_resident_lines = (
            int(resident.sum()) / len(resident) if len(resident) else 0.0
        )
    return TechniqueOutcome(
        technique=technique.name,
        counts=counts,
        wear=tally_wear(set_idx[wrote], lines, n_sets, associativity),
        bypassed_writes=n_bypassed,
        write_energy_factor=technique.write_energy_factor(),
        write_latency_factor=technique.write_latency_factor(),
        block_bytes=block_bytes,
        write_bytes=int(written_sizes.sum()),
        compressed_writes=compressed_writes,
        uncompressed_writes=total_writes - compressed_writes,
        n_frames=n_sets * associativity,
        mean_resident_lines=mean_resident_lines,
    )


def _bypassed(technique: Technique, blocks: np.ndarray, writes: np.ndarray):
    """Stream indices of the writes the technique bypasses.

    Runs the technique's own hooks in stream order: ``observe_read`` on
    every read and ``should_bypass_write`` on every write, as the
    reference loop does.
    """
    observe_read = technique.observe_read
    should_bypass = technique.should_bypass_write
    bypassed = []
    for i, (block, is_write) in enumerate(zip(blocks.tolist(), writes.tolist())):
        if not is_write:
            observe_read(block)
        elif should_bypass(block):
            bypassed.append(i)
    return np.array(bypassed, dtype=np.int64)


def _leveled(technique, home, writes, n_sets, rounds):
    """Replay under set-rotation leveling; ``(set_idx, rounds(set_idx))``.

    Access ``i`` maps to set ``(block + offset_i) % n_sets`` with
    ``offset_i = (writes_seen + data writes before i) // period``, and
    a data write is a write or a read miss.  Each pass replays under a
    schedule of offsets, then re-derives the schedule from that
    replay's data writes; the first pass assumes every read hits.  The
    sequential schedule is the only fixed point, and each pass makes at
    least one more access agree with it, because an access's offset
    depends only on earlier accesses.  The technique's ``writes_seen``
    advances by the replay's data writes, as the reference loop
    advances it.
    """
    period = technique.leveling_period
    start = technique.writes_seen
    data = writes
    schedule = None
    # At most one pass per access, plus the pass that confirms.
    for _ in range(len(writes) + 2):
        offsets = (start + np.cumsum(data) - data) // period
        if schedule is not None and np.array_equal(offsets, schedule):
            break
        schedule = offsets
        # block % n_sets + offset % n_sets stays far below 2**63, where
        # (block + offset) in uint64 could wrap.
        set_idx = (home + offsets % n_sets) % n_sets
        outcome = rounds(set_idx)
        data = writes | ~outcome[0]
    else:
        raise SimulationError("leveling schedule did not converge")
    technique.writes_seen = start + int(np.count_nonzero(data))
    return set_idx, outcome


def replay_with_technique_reference(
    stream: LLCStream,
    technique: Technique,
    capacity_bytes: int,
    associativity: int = 16,
    block_bytes: int = 64,
    n_cores: int = 4,
    mlp_window: int = 128,
    mlp_ceiling: float = 6.0,
) -> TechniqueOutcome:
    """The per-access technique replay: the semantic ground truth
    :func:`replay_with_technique` must match on every field.

    It reads the same declarations one access at a time:

    - every block is sized by one ``line_sizes`` call on the true
      addresses (a line's compressibility must not move with its set);
    - under a ``leveling_period`` a block looks itself up under the
      synthetic id ``(block // n_sets) * n_sets + set``, with ``set =
      (block + writes_seen // leveling_period) % n_sets`` and
      ``writes_seen`` advanced on every data write.  The cache keeps
      its contents across a rotation, so a rotated block can hit on the
      line another block installed under the same id
      (:mod:`repro.techniques.wear_leveling` describes the aliasing);
    - a declared ``tag_factor`` replays a
      :class:`~repro.techniques.compression.CompactedWayCache`, which
      takes each access's line size and may evict several dirty
      victims on one miss; otherwise a
      :class:`~repro.sim.cache.SetAssocCache`.
    """
    compacted = technique.tag_factor is not None
    if compacted:
        cache = CompactedWayCache(
            capacity_bytes, block_bytes, associativity, technique.tag_factor
        )
    else:
        cache = SetAssocCache(capacity_bytes, block_bytes, associativity)
    n_sets = cache.n_sets
    period = technique.leveling_period
    blocks = np.asarray(stream.blocks, dtype=np.uint64)
    sizes = technique.line_sizes(blocks, block_bytes).tolist()
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

    accesses = zip(
        blocks.tolist(), stream.writes.tolist(), stream.cores.tolist(), sizes
    )
    for i, (block, is_write, core, size) in enumerate(accesses):
        if is_write and technique.should_bypass_write(block):
            bypassed += 1
            counts.dirty_evictions += 1  # goes straight to DRAM
            continue
        if not is_write:
            technique.observe_read(block)
        if period is None:
            mapped_set = block % n_sets
        else:
            mapped_set = (block + technique.writes_seen // period) % n_sets
        # Same tag space, the rotated set: encode as a block id whose
        # modulo lands in the mapped set.
        mapped = (block // n_sets) * n_sets + mapped_set
        if compacted:
            outcome = cache.access(mapped, is_write, size)
            counts.dirty_evictions += len(outcome.dirty_victims)
        else:
            outcome = cache.access(mapped, is_write)
            if outcome.dirty_victim is not None:
                counts.dirty_evictions += 1
        if is_write:
            counts.write_accesses += 1
            if outcome.hit:
                counts.write_hits += 1
            else:
                counts.write_misses += 1
        else:
            counts.read_lookups += 1
            if outcome.hit:
                counts.read_hits += 1
                read_hits[core] += 1
                continue
            counts.read_misses += 1
            read_misses[core] += 1
            read_miss[i] = True
        # A data write: the write itself, or a read miss's demand fill.
        if period is not None:
            technique.writes_seen += 1
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
        mean_resident_lines=(
            cache.mean_resident_lines if compacted else float(associativity)
        ),
    )
