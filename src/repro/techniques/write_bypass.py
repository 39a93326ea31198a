"""Writeback bypassing for low-reuse blocks (paper group 2).

A cache-bypass scheme in the spirit of the write-minimisation work the
paper cites ([14], [16], [17], [21]): a writeback whose block has not
been *read* recently is predicted dead and forwarded straight to DRAM
instead of being programmed into the NVM data array.  The predictor is
a bounded recency filter over demand-read blocks — cheap, conservative,
and wrong only in the direction of extra DRAM writes (never lost data).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError
from repro.techniques.base import Technique


class ReuseWriteBypass(Technique):
    """Bypass writebacks whose block shows no recent read reuse."""

    name = "write-bypass"
    bypasses_writes = True

    def __init__(self, filter_blocks: int = 8192) -> None:
        if filter_blocks <= 0:
            raise ConfigurationError("filter must hold at least one block")
        self.filter_blocks = filter_blocks
        # Insertion-ordered dict as a FIFO recency filter.
        self._recent_reads: Dict[int, None] = {}
        #: Writebacks sent around the LLC.
        self.bypassed = 0

    def observe_read(self, block: int) -> None:
        if block in self._recent_reads:
            del self._recent_reads[block]
        self._recent_reads[block] = None
        if len(self._recent_reads) > self.filter_blocks:
            oldest = next(iter(self._recent_reads))
            del self._recent_reads[oldest]

    def should_bypass_write(self, block: int) -> bool:
        bypass = block not in self._recent_reads
        if bypass:
            self.bypassed += 1
        return bypass
