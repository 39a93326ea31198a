"""Sniper-equivalent multicore system simulator (paper Section IV)."""

from repro.sim.cache import AccessOutcome, CacheStats, SetAssocCache
from repro.sim.config import (
    ArchitectureConfig,
    CacheLevelConfig,
    DRAMConfig,
    gainestown,
)
from repro.sim.cpistack import COMPONENTS, CPIStack, cpi_stack, render_stacks
from repro.sim.directory import DirectoryStats, FullMapDirectory
from repro.sim.dram import DRAMSubsystem, DRAMTraffic, dram_traffic_from_stream
from repro.sim.energy import LLCEnergy, llc_energy
from repro.sim.hierarchy import (
    CoreCounters,
    LLCStream,
    PrivateResult,
    filter_private,
)
from repro.sim.llc import LLCCounts, estimate_mlp, simulate_llc
from repro.sim.multiprogram import MixResult, build_mix, simulate_mix
from repro.sim.replacement import POLICIES, RandomCache, SRRIPCache, make_cache
from repro.sim.results import NormalizedResult, SimResult, normalize
from repro.sim.system import (
    SimulationSession,
    replay_llc,
    simulate_system,
)
from repro.sim.timing import (
    CoreBreakdown,
    SystemTiming,
    llc_bank_busy_s,
    resolve_timing,
)

__all__ = [
    "AccessOutcome",
    "CacheStats",
    "SetAssocCache",
    "ArchitectureConfig",
    "CacheLevelConfig",
    "DRAMConfig",
    "gainestown",
    "COMPONENTS",
    "CPIStack",
    "cpi_stack",
    "render_stacks",
    "DirectoryStats",
    "FullMapDirectory",
    "DRAMSubsystem",
    "DRAMTraffic",
    "dram_traffic_from_stream",
    "MixResult",
    "build_mix",
    "simulate_mix",
    "LLCEnergy",
    "llc_energy",
    "CoreCounters",
    "LLCStream",
    "PrivateResult",
    "filter_private",
    "LLCCounts",
    "estimate_mlp",
    "simulate_llc",
    "POLICIES",
    "RandomCache",
    "SRRIPCache",
    "make_cache",
    "NormalizedResult",
    "SimResult",
    "normalize",
    "SimulationSession",
    "replay_llc",
    "simulate_system",
    "CoreBreakdown",
    "SystemTiming",
    "llc_bank_busy_s",
    "resolve_timing",
]
