"""repro.validate — the input-boundary validation firewall.

Gates every external input and every model output: a violation always
raises a structured :class:`~repro.errors.ReproError` subclass.

- :mod:`repro.validate.guard` — model/result/counts plausibility
  guards run before anything is journaled, cached or rendered;
- :mod:`repro.validate.schema` — did-you-mean name lookups and
  config-mapping schema checks;
- :mod:`repro.validate.doctor` — the ``repro-cli doctor`` self-check.

The trace-ingestion layer lives with the formats it validates
(:mod:`repro.trace.io`) and cell plausibility with the cell schema
(:mod:`repro.cells.validation`).

Design rule: validation *rejects, never repairs* — no value is ever
modified on the way through, so the firewall never changes a passing
run's output.
"""

from repro.validate.guard import (
    check_sweep_models,
    guard_compression,
    guard_counts,
    guard_model,
    guard_result,
    guard_value,
)
from repro.validate.schema import (
    architecture_from_mapping,
    did_you_mean,
    unknown_key_message,
    validate_keys,
)

__all__ = [
    "architecture_from_mapping",
    "check_sweep_models",
    "did_you_mean",
    "guard_compression",
    "guard_counts",
    "guard_model",
    "guard_result",
    "guard_value",
    "unknown_key_message",
    "validate_keys",
]
