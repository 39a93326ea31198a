"""Top-level system simulation: wiring the pipeline together.

``simulate_system`` is the one-call entry point; the staged functions
(:func:`repro.sim.hierarchy.filter_private`,
:func:`repro.sim.llc.simulate_llc`, :func:`assemble_result`) are public
so experiment drivers can reuse the technology-independent stages across
many LLC models — private filtering depends only on the architecture,
and LLC replay only on the geometry.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.nvsim.model import LLCModel
from repro.sim.config import ArchitectureConfig, gainestown
from repro.sim.hierarchy import PrivateResult, filter_private
from repro.sim.llc import LLCCounts, simulate_llc
from repro.sim.results import SimResult
from repro.trace.stream import Trace


def replay_llc(
    private: PrivateResult, llc_model: LLCModel, arch: ArchitectureConfig
) -> LLCCounts:
    """Replay the LLC stream at this model's geometry."""
    return simulate_llc(
        private.stream,
        capacity_bytes=llc_model.capacity_bytes,
        associativity=arch.llc_associativity,
        block_bytes=arch.llc_block_bytes,
        n_cores=arch.n_cores,
        mlp_window=arch.mlp_window_instructions,
        mlp_ceiling=arch.max_mlp,
        policy=arch.llc_replacement,
    )


def assemble_result(
    workload: str,
    configuration: str,
    private: PrivateResult,
    counts: LLCCounts,
    llc_model: LLCModel,
    arch: ArchitectureConfig,
) -> SimResult:
    """Resolve timing and energy from precomputed counts.

    Every assembled result — serial, parallel-worker and resumed paths
    all converge here — is priced through the shared
    :func:`repro.nvsim.pricing.price_counts` hook (also used by the
    compressed-LLC study) and passes the output guard
    (:func:`repro.validate.guard.guard_result`) before it is returned,
    so an implausible result can never reach the checkpoint journal,
    the replay cache or a rendered table.
    """
    from repro.nvsim.pricing import price_counts

    return price_counts(
        workload, configuration, private, counts, llc_model, arch
    )


def simulate_system(
    trace: Trace,
    llc_model: LLCModel,
    arch: Optional[ArchitectureConfig] = None,
    configuration: str = "fixed-capacity",
    private: Optional[PrivateResult] = None,
    llc_counts: Optional[LLCCounts] = None,
) -> SimResult:
    """Simulate one workload trace on one LLC model.

    ``private`` and ``llc_counts`` may be supplied to skip the heavy
    stages (the experiment drivers cache them across LLC sweeps); when
    omitted they are computed here.
    """
    arch = arch or gainestown()
    if private is None:
        private = filter_private(trace, arch)
    if llc_counts is None:
        llc_counts = replay_llc(private, llc_model, arch)
    return assemble_result(
        workload=trace.name or "trace",
        configuration=configuration,
        private=private,
        counts=llc_counts,
        llc_model=llc_model,
        arch=arch,
    )


class SimulationSession:
    """Caches technology-independent stages across an LLC sweep.

    One session per (trace, architecture).  ``run(llc_model)`` reuses
    the private-level replay for every model and the LLC replay for
    every model with the same capacity.

    When the persistent replay cache (:mod:`repro.sim.replay_cache`) is
    enabled, both stages are additionally memoised on disk by content
    fingerprint, so repeated runs — and parallel workers replaying the
    same (workload, architecture) cell — skip redundant replays.
    ``private`` may be supplied up front when the caller already holds a
    replay for an architecture with identical private levels.
    """

    def __init__(
        self,
        trace: Trace,
        arch: Optional[ArchitectureConfig] = None,
        configuration: str = "fixed-capacity",
        private: Optional[PrivateResult] = None,
        replay_cache=None,
    ) -> None:
        from repro.sim.replay_cache import default_cache

        self.trace = trace
        self.arch = arch or gainestown()
        self.configuration = configuration
        self._private = private
        self._llc_cache: Dict[Tuple[int, int], LLCCounts] = {}
        self._replay_cache = replay_cache if replay_cache is not None else default_cache()
        self._trace_fp: Optional[str] = None

    @property
    def _fingerprint(self) -> str:
        if self._trace_fp is None:
            from repro.sim.replay_cache import trace_fingerprint

            self._trace_fp = trace_fingerprint(self.trace)
        return self._trace_fp

    @property
    def private(self) -> PrivateResult:
        """The private-level replay (computed once, disk-memoised)."""
        if self._private is None:
            cache = self._replay_cache
            use_disk = cache.should_cache(self.trace)
            if use_disk:
                key = cache.private_key(self._fingerprint, self.arch)
                cached = cache.get(key)
                if cached is not None:
                    self._private = cached
                    return self._private
            self._private = filter_private(self.trace, self.arch)
            if use_disk:
                cache.put(key, self._private)
        return self._private

    def counts_for(self, llc_model: LLCModel) -> LLCCounts:
        """LLC counts for this model's geometry (cached by capacity)."""
        key = (llc_model.capacity_bytes, self.arch.llc_associativity)
        if key not in self._llc_cache:
            cache = self._replay_cache
            use_disk = cache.should_cache(self.trace)
            if use_disk:
                disk_key = cache.llc_key(
                    self._fingerprint, self.arch, llc_model.capacity_bytes
                )
                cached = cache.get(disk_key)
                if cached is not None:
                    self._llc_cache[key] = cached
                    return cached
            from repro.validate.guard import guard_counts

            counts = guard_counts(
                replay_llc(self.private, llc_model, self.arch),
                subject=f"LLC replay {self.trace.name or 'trace'}"
                        f"@{llc_model.capacity_bytes}B",
            )
            self._llc_cache[key] = counts
            if use_disk:
                cache.put(disk_key, counts)
        return self._llc_cache[key]

    def run(
        self, llc_model: LLCModel, configuration: Optional[str] = None
    ) -> SimResult:
        """Simulate this session's workload on one LLC model."""
        return assemble_result(
            workload=self.trace.name or "trace",
            configuration=configuration or self.configuration,
            private=self.private,
            counts=self.counts_for(llc_model),
            llc_model=llc_model,
            arch=self.arch,
        )
