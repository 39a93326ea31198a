"""Write-endurance and lifetime modeling (paper Table I + Section VII).

The paper names lifetime characterization against architecture-agnostic
features as future work; this subpackage implements it: endurance specs
per class, wear-distribution tracking over an LLC replay, and projected
time-to-first-failure with and without ideal wear leveling.
"""

from repro.endurance.lifetime import LifetimeEstimate, estimate_lifetime
from repro.endurance.model import (
    ENDURANCE,
    SECONDS_PER_YEAR,
    EnduranceSpec,
    endurance_of,
)
from repro.endurance.wear import WearSummary, replay_with_wear

__all__ = [
    "LifetimeEstimate",
    "estimate_lifetime",
    "ENDURANCE",
    "SECONDS_PER_YEAR",
    "EnduranceSpec",
    "endurance_of",
    "WearSummary",
    "replay_with_wear",
]
