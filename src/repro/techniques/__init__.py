"""NVM-friendly LLC management techniques (paper Section I's taxonomy).

One representative per group: :class:`SetRotationLeveling` (adapted
architectural), :class:`ReuseWriteBypass` (novel architectural) and
:class:`EarlyWriteTermination` (device level), evaluated against a
technique-free baseline on write count, energy, DRAM traffic and
projected lifetime.  :class:`CompressedLLC` adds the compacted-way
compression family from the L2C2 follow-up work (arXiv:2204.09504),
which changes *effective capacity* as well as per-write cost.
"""

from repro.techniques.base import Technique
from repro.techniques.compression import (
    DEFAULT_TAG_FACTOR,
    CompactedOutcome,
    CompactedWayCache,
    CompressedLLC,
)
from repro.techniques.early_write_termination import (
    DEFAULT_REDUNDANT_FRACTION,
    EarlyWriteTermination,
)
from repro.techniques.evaluate import (
    TechniqueEvaluation,
    evaluate_all,
    evaluate_technique,
)
from repro.techniques.hybrid import (
    HybridCounts,
    HybridEvaluation,
    HybridLLC,
    evaluate_hybrid,
)
from repro.techniques.replay import TechniqueOutcome, replay_with_technique
from repro.techniques.wear_leveling import SetRotationLeveling
from repro.techniques.write_bypass import ReuseWriteBypass

__all__ = [
    "Technique",
    "DEFAULT_TAG_FACTOR",
    "CompactedOutcome",
    "CompactedWayCache",
    "CompressedLLC",
    "DEFAULT_REDUNDANT_FRACTION",
    "EarlyWriteTermination",
    "TechniqueEvaluation",
    "evaluate_all",
    "evaluate_technique",
    "HybridCounts",
    "HybridEvaluation",
    "HybridLLC",
    "evaluate_hybrid",
    "TechniqueOutcome",
    "replay_with_technique",
    "SetRotationLeveling",
    "ReuseWriteBypass",
]
