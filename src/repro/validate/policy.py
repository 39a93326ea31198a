"""The validation firewall's mode, which is always ``strict``.

Every boundary the firewall gates — trace ingestion
(:mod:`repro.trace.io`), cell plausibility
(:mod:`repro.cells.validation`), model-output guards
(:mod:`repro.validate.guard`) — raises a structured
:class:`~repro.errors.ReproError` subclass on the first violation,
before the bad value can reach a sweep, the replay cache or the
checkpoint journal.  There is no weaker mode and no switch.
:func:`current_policy` remains for run fingerprints that record the
mode.
"""

from __future__ import annotations

import enum


class _Policy(enum.Enum):
    STRICT = "strict"


def current_policy() -> _Policy:
    """The firewall's mode: always ``strict``."""
    return _Policy.STRICT
