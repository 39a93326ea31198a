"""Cell pricing: turn LLC counts into a timed, energised result.

The single place where access counts meet an :class:`LLCModel`'s
latencies, energies and leakage.  Both consumers share it, so a cell
is priced identically whether its counts came from a plain LLC replay
(:func:`repro.sim.system.simulate_system` and
:meth:`repro.sim.system.SimulationSession.run` call it) or from a
compressed-LLC replay (:mod:`repro.experiments.compression` scales the
write energy by the bytes actually written).

Every priced result passes the output guard
(:func:`repro.validate.guard.guard_result`) before it is returned.
"""

from __future__ import annotations

from repro.nvsim.model import LLCModel


def price_counts(
    workload: str,
    configuration: str,
    private,
    counts,
    llc_model: LLCModel,
    arch,
    write_energy_scale: float = 1.0,
):
    """Price precomputed LLC counts on one model: timing, energy, guard.

    ``private`` is the technology-independent
    :class:`~repro.sim.hierarchy.PrivateResult`; ``counts`` an
    :class:`~repro.sim.llc.LLCCounts` for this model's geometry —
    replayed or predicted, the pricing is the same.

    ``write_energy_scale`` scales per-write dynamic energy (see
    :func:`repro.sim.energy.llc_energy`); compressed-LLC callers pass
    the replayed ``write_bytes_fraction`` so the energy bill follows
    bytes actually programmed.
    """
    # Lazy imports: repro.sim modules import repro.nvsim.model at module
    # level, so importing them here (not at import time) keeps the
    # package graph acyclic.
    from repro.sim.energy import llc_energy
    from repro.sim.results import SimResult
    from repro.sim.timing import resolve_timing
    from repro.validate.guard import guard_result

    timing = resolve_timing(private, counts, llc_model, arch)
    energy = llc_energy(
        counts, llc_model, timing.runtime_s,
        include_fill_writes=arch.llc_fill_writes,
        write_energy_scale=write_energy_scale,
    )
    return guard_result(SimResult(
        workload=workload,
        llc_name=llc_model.name,
        configuration=configuration,
        runtime_s=timing.runtime_s,
        energy=energy,
        counts=counts,
        timing=timing,
        total_instructions=private.total_instructions,
    ))
