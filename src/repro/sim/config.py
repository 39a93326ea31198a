"""Simulated architecture configuration (paper Table IV).

The paper models a quad-core Xeon x5550 "Gainestown" at 2.66 GHz with a
three-level cache hierarchy and four DRAM controllers.  The timing
constants that Sniper derives from its detailed core model are collapsed
here into an interval-style model's parameters (base CPI, per-level
latencies, overlap windows); they are explicit fields so sensitivity
studies can vary them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import units
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheLevelConfig:
    """Geometry of one private cache level."""

    capacity_bytes: int
    associativity: int
    block_bytes: int = 64

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.associativity <= 0:
            raise ConfigurationError("cache level sizes must be positive")
        if self.capacity_bytes % (self.block_bytes * self.associativity):
            raise ConfigurationError("cache level must have whole sets")

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.capacity_bytes // (self.block_bytes * self.associativity)


@dataclass(frozen=True)
class DRAMConfig:
    """Main-memory model parameters (Table IV, DRAM row)."""

    n_controllers: int = 4
    bandwidth_per_controller: float = 7.6e9  # bytes/second
    base_latency_s: float = 65 * units.NS
    #: Queueing sensitivity: effective latency is
    #: ``base * (1 + queue_factor * u / (1 - u))`` at utilisation ``u``.
    queue_factor: float = 0.6
    max_utilization: float = 0.95

    @property
    def total_bandwidth(self) -> float:
        """Aggregate bandwidth across controllers, bytes/second."""
        return self.n_controllers * self.bandwidth_per_controller


@dataclass(frozen=True)
class ArchitectureConfig:
    """Full simulated-architecture parameters.

    Core-model constants (``base_cpi``, overlap windows) abstract the
    out-of-order engine: a 128-entry ROB can overlap several outstanding
    LLC misses, so the per-miss penalty is the DRAM round trip divided
    by the measured memory-level parallelism (clamped to
    ``max_mlp``, the load-queue-limited ceiling).
    """

    n_cores: int = 4
    clock_hz: float = 2.66e9
    rob_entries: int = 128
    load_queue_entries: int = 48
    store_queue_entries: int = 32

    l1d: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(32 * units.KB, 8)
    )
    l2: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(256 * units.KB, 8)
    )
    llc_associativity: int = 16
    llc_block_bytes: int = 64
    llc_banks: int = 16
    #: LLC replacement policy: "lru" (the paper's setup), "random", "srrip".
    llc_replacement: str = "lru"

    dram: DRAMConfig = field(default_factory=DRAMConfig)

    #: Cycles per instruction with no cache misses (4-wide OoO).
    base_cpi: float = 0.55
    #: L1 hit latency is pipelined away; L2 hit stall cycles per hit.
    l2_hit_cycles: float = 12.0
    #: Interconnect (ring/NoC) cycles added to every LLC access.
    llc_network_cycles: float = 22.0
    #: Fraction of an LLC hit's latency exposed after OoO overlap.
    llc_hit_exposure: float = 0.55
    #: ROB instruction window used to cluster overlapping misses.
    mlp_window_instructions: int = 128
    #: Ceiling on exploitable memory-level parallelism.
    max_mlp: float = 6.0
    #: Fraction of LLC *write* bank occupancy charged against runtime.
    #: The paper's Sniper configuration assumes LLC writes happen off the
    #: critical path (Section V-A-7), i.e. 0.0; setting 1.0 exposes the
    #: full write-latency backpressure (the ablation in DESIGN.md).
    llc_write_backpressure: float = 0.0
    #: Charge demand-miss fills at E_dyn,write.  The paper's equation (7)
    #: prices a miss as a tag probe only, so the default is False; True
    #: is the fill-energy ablation.
    llc_fill_writes: bool = False

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ConfigurationError("n_cores must be positive")
        if self.clock_hz <= 0:
            raise ConfigurationError("clock must be positive")
        if self.max_mlp < 1.0:
            raise ConfigurationError("max_mlp must be at least 1")

    @property
    def cycle_s(self) -> float:
        """Seconds per core cycle."""
        return 1.0 / self.clock_hz

    def cycles(self, seconds: float) -> float:
        """Convert seconds to (fractional) core cycles."""
        return seconds * self.clock_hz

    def with_cores(self, n_cores: int) -> "ArchitectureConfig":
        """A copy with a different core count (core-sweep study)."""
        return replace(self, n_cores=n_cores)


def gainestown(n_cores: int = 4) -> ArchitectureConfig:
    """The paper's simulated architecture (Table IV)."""
    return ArchitectureConfig(n_cores=n_cores)
