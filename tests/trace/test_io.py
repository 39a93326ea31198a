"""Tests for trace persistence."""

import io

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.io import (
    MAX_ADDRESS,
    MAX_GAP,
    MAX_THREAD_ID,
    dump_text,
    load_npz,
    parse_text,
    save_npz,
)
from repro.workloads.generators import generate_trace


@pytest.fixture
def trace():
    return generate_trace("tonto", n_accesses=2000)


class TestNpzRoundTrip:
    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "tonto.npz"
        save_npz(trace, path)
        loaded = load_npz(path)
        assert loaded.name == "tonto"
        assert np.array_equal(loaded.addresses, trace.addresses)
        assert np.array_equal(loaded.writes, trace.writes)
        assert np.array_equal(loaded.thread_ids, trace.thread_ids)
        assert np.array_equal(loaded.gaps, trace.gaps)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_npz(tmp_path / "nope.npz")

    def test_wrong_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.arange(4))
        with pytest.raises(TraceError):
            load_npz(path)


class TestTextFormat:
    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "tonto.txt"
        dump_text(trace, path)
        loaded = parse_text(path, name="tonto")
        assert len(loaded) == len(trace)
        assert np.array_equal(loaded.addresses, trace.addresses)
        assert np.array_equal(loaded.writes, trace.writes)
        assert np.array_equal(loaded.gaps, trace.gaps)

    def test_parse_from_string(self):
        text = """
        # a tiny trace
        R 0x1000 0 5
        W 0x1040
        r 4096 1 2
        """
        trace = parse_text(text, name="tiny")
        assert len(trace) == 3
        assert trace[0].address == 0x1000
        assert trace[0].gap == 5
        assert trace[1].is_write
        assert trace[2].thread_id == 1
        assert trace[2].address == 4096

    def test_bad_op_rejected(self):
        with pytest.raises(TraceError):
            parse_text("X 0x10\n")

    def test_bad_address_rejected(self):
        with pytest.raises(TraceError):
            parse_text("R zebra\n")

    def test_negative_field_rejected(self):
        with pytest.raises(TraceError):
            parse_text("R 0x10 -1\n")

    def test_comments_and_blanks_skipped(self):
        trace = parse_text("# nothing\n\nR 8\n")
        assert len(trace) == 1

    def test_comment_only_file_is_empty_trace(self):
        trace = parse_text("# just\n# comments\n\n", name="empty")
        assert len(trace) == 0
        assert trace.name == "empty"


class TestStructuredLineErrors:
    """Malformed lines fail as TraceError with the line number and
    field — never a bare ValueError (regression: non-integer thread/gap
    used to escape ``int()`` unwrapped)."""

    def test_bad_thread_is_trace_error_with_lineno(self):
        with pytest.raises(TraceError) as excinfo:
            parse_text("R 0x10 0 3\nR 0x1 abc\n")
        error = excinfo.value
        assert error.lineno == 2
        assert error.field == "thread"
        assert error.value == "abc"
        assert "line 2" in str(error)

    def test_bad_gap_is_trace_error_with_lineno(self):
        with pytest.raises(TraceError) as excinfo:
            parse_text("R 0x10 0 x9\n")
        assert excinfo.value.lineno == 1
        assert excinfo.value.field == "gap"

    def test_errors_raise_under_every_policy(self, monkeypatch):
        # No setting weakens the parser: the old REPRO_VALIDATE=off is
        # ignored and a malformed line still raises.
        monkeypatch.setenv("REPRO_VALIDATE", "off")
        with pytest.raises(TraceError):
            parse_text("R zebra\n")


class TestRangeValidation:
    """Out-of-range values are rejected before array construction
    (regression: thread ids and gaps used to wrap silently through the
    uint16/uint32 casts)."""

    def test_thread_over_uint16_rejected_not_wrapped(self):
        with pytest.raises(TraceError) as excinfo:
            parse_text(f"R 0x10 {MAX_THREAD_ID + 1} 0\n")
        assert excinfo.value.field == "thread"
        assert str(MAX_THREAD_ID) in str(excinfo.value)

    def test_gap_over_uint32_rejected_not_wrapped(self):
        with pytest.raises(TraceError) as excinfo:
            parse_text(f"R 0x10 0 {MAX_GAP + 1}\n")
        assert excinfo.value.field == "gap"

    def test_address_over_uint64_rejected(self):
        with pytest.raises(TraceError) as excinfo:
            parse_text(f"R {MAX_ADDRESS + 1}\n")
        assert excinfo.value.field == "address"

    def test_maxima_are_accepted(self):
        trace = parse_text(
            f"W 0x{MAX_ADDRESS:x} {MAX_THREAD_ID} {MAX_GAP}\n"
        )
        assert int(trace.addresses[0]) == MAX_ADDRESS
        assert int(trace.thread_ids[0]) == MAX_THREAD_ID
        assert int(trace.gaps[0]) == MAX_GAP


class TestNpzSchema:
    def test_mismatched_lengths_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(
            path,
            addresses=np.arange(4, dtype=np.uint64),
            writes=np.zeros(4, dtype=bool),
            thread_ids=np.zeros(3, dtype=np.uint16),  # truncated column
            gaps=np.zeros(4, dtype=np.uint32),
        )
        with pytest.raises(TraceError, match="disagree on length"):
            load_npz(path)

    def test_truncated_file_rejected(self, trace, tmp_path):
        path = tmp_path / "whole.npz"
        save_npz(trace, path)
        clipped = tmp_path / "clipped.npz"
        clipped.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(TraceError):
            load_npz(clipped)

    def test_float_addresses_rejected_not_truncated(self, tmp_path):
        path = tmp_path / "float.npz"
        np.savez(
            path,
            addresses=np.array([1.5, 2.5]),
            writes=np.zeros(2, dtype=bool),
            thread_ids=np.zeros(2, dtype=np.uint16),
            gaps=np.zeros(2, dtype=np.uint32),
        )
        with pytest.raises(TraceError, match="integer dtype"):
            load_npz(path)

    def test_negative_values_rejected(self, tmp_path):
        path = tmp_path / "negative.npz"
        np.savez(
            path,
            addresses=np.array([16, -1], dtype=np.int64),
            writes=np.zeros(2, dtype=bool),
            thread_ids=np.zeros(2, dtype=np.uint16),
            gaps=np.zeros(2, dtype=np.uint32),
        )
        with pytest.raises(TraceError, match="negative"):
            load_npz(path)

    def test_nonbinary_writes_rejected(self, tmp_path):
        path = tmp_path / "writes.npz"
        np.savez(
            path,
            addresses=np.array([16, 32], dtype=np.uint64),
            writes=np.array([0, 2], dtype=np.int64),
            thread_ids=np.zeros(2, dtype=np.uint16),
            gaps=np.zeros(2, dtype=np.uint32),
        )
        with pytest.raises(TraceError, match="0/1"):
            load_npz(path)

    def test_thread_over_uint16_rejected(self, tmp_path):
        path = tmp_path / "threads.npz"
        np.savez(
            path,
            addresses=np.array([16], dtype=np.uint64),
            writes=np.zeros(1, dtype=bool),
            thread_ids=np.array([70000], dtype=np.int64),
            gaps=np.zeros(1, dtype=np.uint32),
        )
        with pytest.raises(TraceError, match="maximum"):
            load_npz(path)


class TestBoundedMemoryStreaming:
    def test_multi_chunk_parse_round_trips(self, monkeypatch):
        # Shrink the chunk size so a small input exercises the
        # flush/concatenate path a multi-GB trace would take.
        from repro.trace import io as trace_io

        monkeypatch.setattr(trace_io, "_CHUNK_LINES", 7)
        lines = "".join(f"R 0x{i * 64:x} 0 {i % 5}\n" for i in range(100))
        trace = parse_text(lines, name="chunked")
        assert len(trace) == 100
        assert [int(a) for a in trace.addresses[:3]] == [0, 64, 128]
        assert int(trace.gaps[99]) == 99 % 5

    def test_file_object_streams(self):
        handle = io.StringIO("R 0x10 1 2\nW 0x40\n")
        trace = parse_text(handle, name="stream")
        assert len(trace) == 2
        assert trace[0].thread_id == 1
