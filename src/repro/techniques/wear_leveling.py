"""Wear leveling by periodic set-index rotation (paper group 1).

An intra-cache levelling scheme in the spirit of WriteSmoothing /
LastingNVCache (the paper's refs [20], [38]): every ``period`` data-array
writes the block-to-set mapping rotates by one set, so a write-hot
address walks across the physical sets over time instead of grinding one
of them down.  The class only declares ``leveling_period`` (a
declaration :class:`~repro.techniques.compression.CompressedLLC`
shares); the technique replay applies the rotation.

The replay neither flushes nor migrates on a rotation: the cache keeps
its contents, and a block looks itself up under its rotated id,
``(block // n_sets) * n_sets + (block + offset) % n_sets``.  Those ids
alias across a rotation — block ``b``'s new id is block ``b + 1``'s old
one — so a rotated block can hit on the line another block installed,
where a real scheme (which must flush or remap) would miss.  The
modelled rotation therefore understates the transition misses.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.techniques.base import Technique


class SetRotationLeveling(Technique):
    """Rotate the set mapping every ``period`` writes."""

    name = "wear-leveling"

    def __init__(self, period: int = 4096) -> None:
        if period <= 0:
            raise ConfigurationError("rotation period must be positive")
        self.leveling_period = period

    @property
    def rotations(self) -> int:
        """Number of rotations performed."""
        return self.writes_seen // self.leveling_period

    @property
    def rotated(self) -> bool:
        """Whether the mapping moved since construction."""
        return self.rotations > 0
