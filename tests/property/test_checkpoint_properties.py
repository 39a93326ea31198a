"""Property-based tests for checkpoint durability.

The crash model: a run may die at *any byte offset* of its journal.
Whatever prefix survives must recover cleanly, and recovery plus
recomputation of the remainder must reproduce the full run exactly.
"""

import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim.checkpoint import (
    CHECKPOINT_NAME,
    CheckpointJournal,
    cell_digest,
    result_from_dict,
    result_to_dict,
)
from repro.sim.energy import LLCEnergy
from repro.sim.llc import LLCCounts
from repro.sim.parallel import SweepCell
from repro.sim.results import SimResult
from repro.sim.timing import CoreBreakdown, SystemTiming

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
COUNT = st.integers(min_value=0, max_value=10**12)


@st.composite
def sim_results(draw, workload="leela"):
    runtime = draw(FINITE)
    return SimResult(
        workload=workload,
        llc_name=draw(st.sampled_from(["SRAM", "Jan_S", "Kim_S"])),
        configuration="fixed-capacity",
        runtime_s=runtime,
        energy=LLCEnergy(*(draw(FINITE) for _ in range(4))),
        counts=LLCCounts(
            capacity_bytes=draw(COUNT),
            associativity=16,
            read_lookups=draw(COUNT),
            read_hits=draw(COUNT),
            read_misses=draw(COUNT),
            write_accesses=draw(COUNT),
            write_hits=draw(COUNT),
            write_misses=draw(COUNT),
            dirty_evictions=draw(COUNT),
            per_core_read_hits=draw(st.lists(COUNT, min_size=2, max_size=2)),
            per_core_read_misses=draw(st.lists(COUNT, min_size=2, max_size=2)),
            per_core_mlp=draw(st.lists(FINITE, min_size=2, max_size=2)),
        ),
        timing=SystemTiming(
            runtime_s=runtime,
            core_breakdowns=[
                CoreBreakdown(*(draw(FINITE) for _ in range(4)))
                for _ in range(2)
            ],
            dram_latency_s=draw(FINITE),
            dram_utilization=draw(FINITE),
            llc_busy_s=draw(FINITE),
            bound=draw(st.sampled_from(["core", "dram", "llc"])),
        ),
        total_instructions=draw(COUNT),
    )


def _cell(seed):
    return SweepCell(
        workload="leela",
        configuration="fixed-capacity",
        model_names=("SRAM",),
        seed=seed,
        n_accesses=6000,
    )


@given(result=sim_results())
@settings(max_examples=60, deadline=None)
def test_result_serialization_is_exact(result):
    """Journal restore must equal recomputation for *any* finite
    result: floats round-trip bit-exactly through JSON text."""
    via_json = json.loads(json.dumps(result_to_dict(result)))
    assert result_from_dict(via_json) == result


@given(
    results=st.lists(sim_results(), min_size=1, max_size=4),
    offset_fraction=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_crash_at_any_byte_offset_recovers_a_clean_prefix(
    results, offset_fraction
):
    """Truncate the journal at an arbitrary byte: exactly the records
    whose lines survive whole are recovered; recovery + recomputation
    of the rest reproduces the full run."""
    full = {
        cell_digest(_cell(seed)): {"SRAM": result}
        for seed, result in enumerate(results)
    }
    with tempfile.TemporaryDirectory() as tmp:
        journal = CheckpointJournal(tmp)
        for seed, result in enumerate(results):
            journal.record(_cell(seed), {"SRAM": result})
        journal.close()

        path = Path(tmp) / CHECKPOINT_NAME
        blob = path.read_bytes()
        offset = int(len(blob) * offset_fraction)
        path.write_bytes(blob[:offset])

        # A record survives iff its full content (the trailing newline
        # is dispensable) fits inside the truncated prefix.
        surviving = 0
        position = 0
        for line in blob.split(b"\n")[:-1]:
            if position + len(line) <= offset:
                surviving += 1
            position += len(line) + 1
        expected = dict(list(full.items())[:surviving])

        loaded = CheckpointJournal(tmp).load()
        assert loaded == expected  # the whole-line prefix, nothing else

        # "Resume": recompute whatever the crash lost.
        merged = dict(loaded)
        for key, value in full.items():
            if key not in merged:
                merged[key] = value
        assert merged == full


@given(
    corruption=st.binary(min_size=1, max_size=30),
    position_fraction=st.floats(min_value=0.0, max_value=1.0),
    results=st.lists(sim_results(), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_arbitrary_overwrites_never_yield_wrong_results(
    corruption, position_fraction, results
):
    """Splatter arbitrary bytes anywhere in the journal: every record
    that still loads must be one that was actually written."""
    full = {
        cell_digest(_cell(seed)): {"SRAM": result}
        for seed, result in enumerate(results)
    }
    with tempfile.TemporaryDirectory() as tmp:
        journal = CheckpointJournal(tmp)
        for seed, result in enumerate(results):
            journal.record(_cell(seed), {"SRAM": result})
        journal.close()

        path = Path(tmp) / CHECKPOINT_NAME
        blob = bytearray(path.read_bytes())
        position = int((len(blob) - 1) * position_fraction)
        blob[position : position + len(corruption)] = corruption
        path.write_bytes(bytes(blob))

        loaded = CheckpointJournal(tmp).load()
        for key, value in loaded.items():
            assert key in full
            assert value == full[key]

