"""Tests for the column-oriented Trace container."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.access import AccessType, MemoryAccess
from repro.trace.stream import Trace, interleave_threads


def _toy_trace():
    accesses = [
        MemoryAccess(0x1000, AccessType.READ, thread_id=0, gap=2),
        MemoryAccess(0x1040, AccessType.WRITE, thread_id=0, gap=0),
        MemoryAccess(0x2000, AccessType.READ, thread_id=1, gap=5),
        MemoryAccess(0x1000, AccessType.WRITE, thread_id=1, gap=1),
    ]
    return Trace.from_accesses(accesses, name="toy")


class TestConstruction:
    def test_from_accesses_round_trip(self):
        trace = _toy_trace()
        assert len(trace) == 4
        assert trace[1].is_write
        assert trace[2].thread_id == 1
        assert trace[0].gap == 2
        assert list(trace)[3].address == 0x1000

    def test_empty(self):
        trace = Trace.empty("nothing")
        assert len(trace) == 0
        assert trace.n_threads == 0
        assert trace.n_instructions == 0

    def test_column_length_mismatch_raises(self):
        with pytest.raises(TraceError):
            Trace(
                addresses=np.zeros(3, dtype=np.uint64),
                writes=np.zeros(2, dtype=bool),
                thread_ids=np.zeros(3, dtype=np.uint16),
                gaps=np.zeros(3, dtype=np.uint32),
            )

    def test_concatenate(self):
        trace = _toy_trace()
        double = Trace.concatenate([trace, trace], name="double")
        assert len(double) == 8
        assert double.name == "double"
        assert double.n_writes == 2 * trace.n_writes


class TestStats:
    def test_counts(self):
        trace = _toy_trace()
        assert trace.n_reads == 2
        assert trace.n_writes == 2
        assert trace.n_accesses == 4

    def test_instructions_are_gaps_plus_accesses(self):
        trace = _toy_trace()
        assert trace.n_instructions == (2 + 0 + 5 + 1) + 4

    def test_n_threads(self):
        assert _toy_trace().n_threads == 2

    def test_block_addresses(self):
        trace = _toy_trace()
        assert trace.block_addresses[0] == 0x1000 >> 6
        assert trace.block_addresses[1] == 0x1040 >> 6


class TestViews:
    def test_reads_writes_partition(self):
        trace = _toy_trace()
        assert len(trace.reads()) + len(trace.writes_only()) == len(trace)
        assert trace.reads().n_writes == 0
        assert trace.writes_only().n_reads == 0

    def test_thread_view(self):
        trace = _toy_trace()
        t1 = trace.thread(1)
        assert len(t1) == 2
        assert set(np.asarray(t1.thread_ids)) == {1}

    def test_head(self):
        trace = _toy_trace()
        assert len(trace.head(2)) == 2
        assert trace.head(2)[0].address == trace[0].address


class TestInterleave:
    def test_round_robin_order(self):
        a = Trace.from_accesses(
            [MemoryAccess(0x10 * i, AccessType.READ) for i in range(1, 4)]
        )
        b = Trace.from_accesses(
            [MemoryAccess(0x1000 * i, AccessType.WRITE) for i in range(1, 3)]
        )
        merged = interleave_threads([a, b], name="merged")
        assert len(merged) == 5
        # Round robin: a0 b0 a1 b1 a2
        assert merged[0].address == 0x10
        assert merged[1].address == 0x1000
        assert merged[2].address == 0x20
        assert merged[4].address == 0x30

    def test_thread_ids_reassigned(self):
        a = Trace.from_accesses([MemoryAccess(1, AccessType.READ, thread_id=7)])
        b = Trace.from_accesses([MemoryAccess(2, AccessType.READ, thread_id=9)])
        merged = interleave_threads([a, b])
        assert set(np.asarray(merged.thread_ids)) == {0, 1}

    def test_empty_input(self):
        assert len(interleave_threads([])) == 0
