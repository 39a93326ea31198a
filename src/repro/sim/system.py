"""Top-level system simulation: wiring the pipeline together.

``simulate_system`` is the one-call entry point; the staged functions
(:func:`repro.sim.hierarchy.filter_private`,
:func:`repro.sim.llc.simulate_llc`,
:func:`repro.nvsim.pricing.price_counts`) are public so experiment
drivers can reuse the technology-independent stages across many LLC
models — private filtering depends only on the architecture, and LLC
replay only on the geometry.  ``price_counts`` passes every result
through the output guard (:func:`repro.validate.guard.guard_result`),
so an implausible result never reaches the checkpoint journal, the
replay cache or a rendered table.
"""

from __future__ import annotations

from typing import Optional

from repro.nvsim.model import LLCModel
from repro.nvsim.pricing import price_counts
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
    return price_counts(
        trace.name or "trace", configuration, private, llc_counts,
        llc_model, arch,
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
    ``replays`` is the in-process memo of this trace's replays, keyed
    like the disk cache (:func:`~repro.sim.replay_cache.private_arch_key`
    and :func:`~repro.sim.replay_cache.llc_geometry_key`); sessions of
    one trace that share it replay once for every architecture those
    keys cannot tell apart.
    """

    def __init__(
        self,
        trace: Trace,
        arch: Optional[ArchitectureConfig] = None,
        configuration: str = "fixed-capacity",
        replay_cache=None,
        replays: Optional[dict] = None,
    ) -> None:
        from repro.sim.replay_cache import default_cache, private_arch_key

        self.trace = trace
        self.arch = arch or gainestown()
        self.configuration = configuration
        self._replays = {} if replays is None else replays
        self._private_key = private_arch_key(self.arch)
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
        private = self._replays.get(self._private_key)
        if private is None:
            cache = self._replay_cache
            use_disk = cache.should_cache(self.trace)
            if use_disk:
                key = cache.private_key(self._fingerprint, self.arch)
                private = cache.get(key)
            if private is None:
                private = filter_private(self.trace, self.arch)
                if use_disk:
                    cache.put(key, private)
            self._replays[self._private_key] = private
        return private

    def counts_for(self, llc_model: LLCModel) -> LLCCounts:
        """LLC counts for this model's geometry (cached by geometry)."""
        from repro.sim.replay_cache import llc_geometry_key

        key = (
            self._private_key,
            llc_geometry_key(self.arch, llc_model.capacity_bytes),
        )
        counts = self._replays.get(key)
        if counts is None:
            cache = self._replay_cache
            use_disk = cache.should_cache(self.trace)
            if use_disk:
                disk_key = cache.llc_key(
                    self._fingerprint, self.arch, llc_model.capacity_bytes
                )
                counts = cache.get(disk_key)
            if counts is None:
                from repro.validate.guard import guard_counts

                counts = guard_counts(
                    replay_llc(self.private, llc_model, self.arch),
                    subject=f"LLC replay {self.trace.name or 'trace'}"
                            f"@{llc_model.capacity_bytes}B",
                )
                if use_disk:
                    cache.put(disk_key, counts)
            self._replays[key] = counts
        return counts

    def run(
        self, llc_model: LLCModel, configuration: Optional[str] = None
    ) -> SimResult:
        """Simulate this session's workload on one LLC model."""
        return price_counts(
            self.trace.name or "trace",
            configuration or self.configuration,
            self.private,
            self.counts_for(llc_model),
            llc_model,
            self.arch,
        )
