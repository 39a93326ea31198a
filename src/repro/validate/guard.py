"""Model-output guards — the firewall's last checkpoint before results
are journaled, cached or rendered.

Three guards, one per artifact that crosses a persistence boundary:

- :func:`guard_model` — an :class:`~repro.nvsim.model.LLCModel` about
  to drive a sweep (NaN/Inf/negative latency, energy, area, capacity;
  physical upper bounds on each);
- :func:`guard_counts` — :class:`~repro.sim.llc.LLCCounts` about to be
  written to the replay cache (non-negative, internally consistent);
- :func:`guard_result` — a :class:`~repro.sim.results.SimResult` about
  to be journaled to a checkpoint or reported (finite runtime and
  energy, consistent energy breakdown).

Plus :func:`guard_compression`, the count-sum extension for compressed
replays: the compressed/uncompressed write split must sum to the total
and the byte accounting must stay between full-size and the ratio-8
floor.

Plus the sweep-level invariant of the paper's equations (4)-(8),
:func:`check_sweep_models`: every model in a *fixed-capacity* sweep
shares one capacity; every model in a *fixed-area* sweep fits the
silicon budget (with the paper's own exemption: the smallest ladder
capacity is allowed to exceed it slightly — Jan_S's 1 MB case).

Guards never modify values — they only reject — so they never change
a passing run's output.  Every guard always runs: a failed one raises
:class:`~repro.errors.PlausibilityError` carrying the offending field,
value, violated bound and provenance chain.  Cost per guarded result
is a few dozen float comparisons — bounded well under the 2% budget
that ``tests/validate/test_overhead.py`` pins.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.errors import PlausibilityError
from repro.obs import metrics as _metrics

#: Physical upper bounds for LLC model outputs.  Generous by an order
#: of magnitude over anything in Table III — they exist to catch unit
#: mistakes (ns stored as s, pJ as J), not to police design quality.
MAX_LATENCY_S = 1e-3        # 1 ms; slowest Table III write is ~305 ns
MAX_ENERGY_J = 1e-5         # 10 uJ/access; Table III tops out ~375 nJ
                            # (Kang_P's fixed-capacity write energy)
MAX_LEAKAGE_W = 1e3         # 1 kW standby would be a unit error
MAX_AREA_MM2 = 1e5          # 10 cm^2 of LLC is not a cache
MAX_CAPACITY_BYTES = 1 << 40  # 1 TiB LLC

#: Fields of an LLCModel the guard range-checks, with their bound.
_MODEL_FIELDS = (
    ("tag_latency_s", MAX_LATENCY_S),
    ("read_latency_s", MAX_LATENCY_S),
    ("set_latency_s", MAX_LATENCY_S),
    ("reset_latency_s", MAX_LATENCY_S),
    ("hit_energy_j", MAX_ENERGY_J),
    ("miss_energy_j", MAX_ENERGY_J),
    ("write_energy_j", MAX_ENERGY_J),
    ("leakage_w", MAX_LEAKAGE_W),
    ("area_mm2", MAX_AREA_MM2),
)


def _fail(
    subject: str,
    field: str,
    value: object,
    bound: str,
    provenance: str = "",
) -> None:
    """Reject one implausible value: count it and raise."""
    _metrics.counter_add("validate.guard.violations")
    message = f"{subject}: {field}={value!r} violates {bound}"
    if provenance:
        message += f" (provenance: {provenance})"
    raise PlausibilityError(
        message,
        subject=subject,
        field=field,
        value=value,
        bound=bound,
        provenance=provenance,
    )


def _bad_number(value: float) -> bool:
    return not isinstance(value, (int, float)) or not math.isfinite(value)


def guard_value(
    subject: str,
    field: str,
    value: float,
    lo: float = 0.0,
    hi: float = math.inf,
    provenance: str = "",
) -> float:
    """Guard one scalar: finite and within ``[lo, hi]``.

    Returns the value unchanged so calls can be inlined into
    expressions.  The workhorse behind the composite guards, exposed
    for ad-hoc checks in experiment code.
    """
    if _bad_number(value):
        _fail(subject, field, value, "finite-number requirement", provenance)
    elif not lo <= value <= hi:
        _fail(subject, field, value, f"range [{lo:g}, {hi:g}]", provenance)
    return value


def guard_model(model):
    """Reject an LLC model with impossible outputs; return it unchanged.

    Called by :func:`repro.nvsim.model.generate_llc_model` on every
    generated model and by the published-model lookup, so no sweep can
    start from a NaN latency or negative energy regardless of which
    source produced the model.
    """
    subject = f"LLC model {model.name} ({model.source})"
    provenance = f"source={model.source}"
    if (
        not isinstance(model.capacity_bytes, int)
        or not 0 < model.capacity_bytes <= MAX_CAPACITY_BYTES
    ):
        _fail(
            subject, "capacity_bytes", model.capacity_bytes,
            f"range (0, {MAX_CAPACITY_BYTES}]", provenance,
        )
    for field, bound in _MODEL_FIELDS:
        value = getattr(model, field)
        if _bad_number(value):
            _fail(subject, field, value, "finite-number requirement", provenance)
        elif not 0.0 <= value <= bound:
            _fail(subject, field, value, f"range [0, {bound:g}]", provenance)
    return model


def guard_counts(counts, subject: str = "LLC replay"):
    """Reject inconsistent LLC counts before they reach the replay cache.

    Checks every counter is a non-negative integer and the hit/miss
    split sums to the lookups that produced it.
    """
    for field in (
        "read_lookups", "read_hits", "read_misses",
        "write_accesses", "write_hits", "write_misses", "dirty_evictions",
    ):
        value = getattr(counts, field)
        if not isinstance(value, int) or value < 0:
            _fail(subject, field, value, "non-negative integer requirement")
    if counts.read_hits + counts.read_misses != counts.read_lookups:
        _fail(
            subject, "read_hits+read_misses",
            counts.read_hits + counts.read_misses,
            f"exact-sum invariant (read_lookups={counts.read_lookups})",
        )
    if counts.write_hits + counts.write_misses != counts.write_accesses:
        _fail(
            subject, "write_hits+write_misses",
            counts.write_hits + counts.write_misses,
            f"exact-sum invariant (write_accesses={counts.write_accesses})",
        )
    if counts.dirty_evictions > counts.fills:
        _fail(subject, "dirty_evictions", counts.dirty_evictions,
              f"at-most-fills invariant (fills={counts.fills})")
    return counts


def guard_compression(outcome, subject: str = "compressed replay"):
    """Reject an inconsistent compressed-replay outcome.

    Extends the count-sum discipline of :func:`guard_counts` to the
    compressed/uncompressed write split of a
    :class:`~repro.techniques.replay.TechniqueOutcome`, and bounds the
    byte accounting by physics: no write programs more than the block,
    none fewer than an eighth of it (the hardest size class the
    compressor emits, ratio 8).
    """
    for field in ("write_bytes", "compressed_writes", "uncompressed_writes"):
        value = getattr(outcome, field)
        if not isinstance(value, int) or value < 0:
            _fail(subject, field, value, "non-negative integer requirement")
    total = outcome.wear.total_writes
    if outcome.compressed_writes + outcome.uncompressed_writes != total:
        _fail(
            subject, "compressed_writes+uncompressed_writes",
            outcome.compressed_writes + outcome.uncompressed_writes,
            f"exact-sum invariant (total_writes={total})",
        )
    full_bytes = total * outcome.block_bytes
    if outcome.write_bytes > full_bytes:
        _fail(subject, "write_bytes", outcome.write_bytes,
              f"at-most-full-size invariant ({full_bytes} bytes)")
    if 8 * outcome.write_bytes < full_bytes:
        _fail(subject, "write_bytes", outcome.write_bytes,
              f"ratio-8 floor invariant (>= {full_bytes} / 8 bytes)")
    fraction = outcome.write_bytes_fraction
    if not 0.125 <= fraction <= 1.0:
        _fail(subject, "write_bytes_fraction", fraction, "range [0.125, 1]")
    return outcome


def guard_result(result):
    """Reject an implausible simulation result; return it unchanged.

    Runs on every priced :class:`~repro.sim.results.SimResult` —
    serial, parallel-worker and resumed paths all converge on
    :func:`repro.nvsim.pricing.price_counts` — *before* the result can
    be journaled, cached or rendered.
    """
    subject = f"result {result.workload}/{result.llc_name}"
    provenance = f"model {result.llc_name}, configuration {result.configuration}"
    if _bad_number(result.runtime_s) or result.runtime_s < 0:
        _fail(subject, "runtime_s", result.runtime_s,
              "finite non-negative requirement", provenance)
    energy = result.energy
    for field in ("hit_energy_j", "miss_energy_j",
                  "write_energy_j", "leakage_energy_j"):
        value = getattr(energy, field)
        if _bad_number(value) or value < 0:
            _fail(subject, f"energy.{field}", value,
                  "finite non-negative requirement", provenance)
    if result.total_instructions < 0:
        _fail(subject, "total_instructions",
              result.total_instructions, "non-negative requirement", provenance)
    return result


def check_sweep_models(
    models: Sequence,
    configuration: str,
    area_budget_mm2: Optional[float] = None,
    min_capacity_bytes: Optional[int] = None,
) -> None:
    """The paper's configuration invariants (equations (4)-(8)).

    *fixed-capacity*: every model in the sweep shares one capacity (the
    comparison is per-byte meaningless otherwise).  *fixed-area*: every
    model's area fits ``area_budget_mm2`` — except a model already at
    the smallest ladder capacity (``min_capacity_bytes``), which the
    paper keeps despite overshooting (Jan_S at 1 MB / 9.17 mm^2).
    """
    if not models:
        return
    if configuration == "fixed-capacity":
        capacity = models[0].capacity_bytes
        for model in models:
            if model.capacity_bytes != capacity:
                _fail(
                    f"fixed-capacity sweep ({model.name})",
                    "capacity_bytes", model.capacity_bytes,
                    f"equal-capacity invariant ({models[0].name} has "
                    f"{capacity})", f"source={model.source}",
                )
    elif configuration == "fixed-area" and area_budget_mm2 is not None:
        # Published fixed-area models carry the measured baseline area
        # for every row, so allow a small tolerance over the budget.
        tolerance = 1.05 * area_budget_mm2
        for model in models:
            if model.area_mm2 > tolerance and (
                min_capacity_bytes is None
                or model.capacity_bytes > min_capacity_bytes
            ):
                _fail(
                    f"fixed-area sweep ({model.name})",
                    "area_mm2", model.area_mm2,
                    f"area budget {area_budget_mm2:g} mm^2",
                    f"source={model.source}",
                )
