"""Property-based tests for the input-validation firewall.

The adversarial contract under test:

- both trace formats round-trip arbitrary in-range traces exactly,
  including huge addresses and unicode names;
- arbitrary text never escapes :func:`parse_text` as anything but a
  :class:`~repro.errors.TraceError` (or a parsed trace);
- an npz truncated at *any* byte offset fails as a structured
  :class:`TraceError`, never a raw zipfile/numpy exception;
- the output guards reject NaN/Inf injected into any guarded field of
  a real simulation result.
"""

import dataclasses
import io
import tempfile
from functools import lru_cache
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import PlausibilityError, ReproError, TraceError
from repro.trace.io import (
    MAX_ADDRESS,
    MAX_GAP,
    MAX_THREAD_ID,
    dump_text,
    load_npz,
    parse_text,
    save_npz,
)
from repro.trace.stream import Trace

ROW = st.tuples(
    st.integers(min_value=0, max_value=MAX_ADDRESS),
    st.booleans(),
    st.integers(min_value=0, max_value=MAX_THREAD_ID),
    st.integers(min_value=0, max_value=MAX_GAP),
)

NAMES = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc"), blacklist_characters="\\/"
    ),
    max_size=20,
)


def _trace_from_rows(rows, name):
    addresses, writes, threads, gaps = (
        zip(*rows) if rows else ((), (), (), ())
    )
    return Trace(
        addresses=np.array(addresses, dtype=np.uint64),
        writes=np.array(writes, dtype=bool),
        thread_ids=np.array(threads, dtype=np.uint16),
        gaps=np.array(gaps, dtype=np.uint32),
        name=name,
    )


def _assert_traces_equal(left, right):
    assert np.array_equal(left.addresses, right.addresses)
    assert np.array_equal(left.writes, right.writes)
    assert np.array_equal(left.thread_ids, right.thread_ids)
    assert np.array_equal(left.gaps, right.gaps)


@given(rows=st.lists(ROW, max_size=50), name=NAMES)
@settings(max_examples=50, deadline=None)
def test_text_round_trip(rows, name):
    trace = _trace_from_rows(rows, name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.txt"
        dump_text(trace, path)
        loaded = parse_text(path, name=name)
    _assert_traces_equal(trace, loaded)
    assert loaded.name == name


@given(rows=st.lists(ROW, max_size=50), name=NAMES)
@settings(max_examples=50, deadline=None)
def test_npz_round_trip(rows, name):
    trace = _trace_from_rows(rows, name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.npz"
        save_npz(trace, path)
        loaded = load_npz(path)
    _assert_traces_equal(trace, loaded)
    assert loaded.name == name


@given(text=st.text(max_size=300))
@settings(max_examples=100, deadline=None)
def test_arbitrary_text_never_escapes_the_firewall(text):
    """parse_text either parses or raises TraceError — no bare
    ValueError/OverflowError from the int conversions, no numpy cast
    surprises (a StringIO source sidesteps path interpretation)."""
    try:
        trace = parse_text(io.StringIO(text), name="fuzz")
    except TraceError:
        return
    # Whatever parsed must satisfy the column invariants.
    assert trace.addresses.dtype == np.uint64
    if len(trace):
        assert int(trace.thread_ids.max()) <= MAX_THREAD_ID
        assert int(trace.gaps.max()) <= MAX_GAP


@lru_cache(maxsize=1)
def _npz_bytes():
    rng = np.random.default_rng(7)
    trace = Trace(
        addresses=rng.integers(0, 2**40, 200, dtype=np.uint64),
        writes=rng.random(200) < 0.3,
        thread_ids=rng.integers(0, 4, 200, dtype=np.uint16),
        gaps=rng.integers(0, 50, 200, dtype=np.uint32),
        name="golden",
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.npz"
        save_npz(trace, path)
        return path.read_bytes()


@given(fraction=st.floats(min_value=0.0, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_truncated_npz_is_structured_error(fraction):
    whole = _npz_bytes()
    clipped = whole[: int(len(whole) * fraction)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clipped.npz"
        path.write_bytes(clipped)
        with pytest.raises(TraceError):
            load_npz(path)


@given(
    corrupt_at=st.integers(min_value=0, max_value=199),
    flip=st.integers(min_value=1, max_value=255),
)
@settings(max_examples=30, deadline=None)
def test_bitflipped_npz_never_escapes_unstructured(corrupt_at, flip):
    """A corrupted archive either still loads as a valid trace or fails
    as a ReproError — nothing else."""
    whole = bytearray(_npz_bytes())
    whole[corrupt_at % len(whole)] ^= flip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flipped.npz"
        path.write_bytes(bytes(whole))
        try:
            trace = load_npz(path)
        except ReproError:
            return
        assert len(trace) == 200


# -- output-guard properties -------------------------------------------------

@lru_cache(maxsize=1)
def _real_result():
    from repro.nvsim.published import published_model
    from repro.sim.system import SimulationSession
    from repro.workloads.generators import generate_trace

    trace = generate_trace("leela", n_accesses=8000)
    return SimulationSession(trace).run(published_model("Xue_S"))


BAD_FLOATS = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -1.0]
)

ENERGY_FIELDS = (
    "hit_energy_j", "miss_energy_j", "write_energy_j", "leakage_energy_j"
)


@given(bad=BAD_FLOATS)
@settings(max_examples=20, deadline=None)
def test_guard_rejects_injected_bad_runtime(bad):
    from repro.validate.guard import guard_result

    broken = dataclasses.replace(_real_result(), runtime_s=bad)
    with pytest.raises(PlausibilityError) as excinfo:
        guard_result(broken)
    assert excinfo.value.field == "runtime_s"


@given(field=st.sampled_from(ENERGY_FIELDS), bad=BAD_FLOATS)
@settings(max_examples=40, deadline=None)
def test_guard_rejects_injected_bad_energy(field, bad):
    from repro.validate.guard import guard_result

    result = _real_result()
    broken = dataclasses.replace(
        result, energy=dataclasses.replace(result.energy, **{field: bad})
    )
    with pytest.raises(PlausibilityError) as excinfo:
        guard_result(broken)
    assert excinfo.value.field == f"energy.{field}"


MODEL_FLOAT_FIELDS = (
    "tag_latency_s", "read_latency_s", "set_latency_s", "reset_latency_s",
    "hit_energy_j", "miss_energy_j", "write_energy_j", "leakage_w",
    "area_mm2",
)


@given(
    field=st.sampled_from(MODEL_FLOAT_FIELDS),
    bad=st.sampled_from([float("nan"), float("inf")]),
)
@settings(max_examples=40, deadline=None)
def test_guard_rejects_injected_bad_model_field(field, bad):
    from repro.nvsim.published import published_model
    from repro.validate.guard import guard_model

    broken = dataclasses.replace(published_model("Xue_S"), **{field: bad})
    with pytest.raises(PlausibilityError) as excinfo:
        guard_model(broken)
    assert excinfo.value.field == field
