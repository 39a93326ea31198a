"""The one builder for hand-written LLC streams in tests."""

from __future__ import annotations

import numpy as np

from repro.sim.hierarchy import LLCStream


def llc_stream(blocks, writes=None, cores=None, positions=None) -> LLCStream:
    """An LLC stream from plain sequences.

    Accesses are reads issued by core 0 at instruction positions
    0, 1, 2, ... unless ``writes``, ``cores`` or ``positions`` say
    otherwise.
    """
    n = len(blocks)
    return LLCStream(
        blocks=np.asarray(blocks, dtype=np.uint64),
        writes=np.zeros(n, bool) if writes is None else np.asarray(writes, bool),
        cores=np.asarray(np.zeros(n) if cores is None else cores, np.uint16),
        instr_positions=np.asarray(
            np.arange(n) if positions is None else positions, np.uint64
        ),
    )
