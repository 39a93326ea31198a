"""Fault injection: workers killed, crashing, or hanging mid-sweep.

Every scenario must end in either a correct full result (identical to
an undisturbed run) or a structured, resumable partial one
(:class:`~repro.errors.PartialResultError` carrying the completed
cells) — never a silent loss.
"""

from __future__ import annotations

import pytest

from repro.errors import PartialResultError
from repro.experiments.common import ExperimentContext
from repro.sim.parallel import FaultPolicy, SweepCell, run_cells

from tests.faults.conftest import arm_hook

# Fault-injection tests mutate process-global state (env hooks,
# the default replay cache, child processes, signals): CI runs
# them in the dedicated non-parallel `serial` job.
pytestmark = pytest.mark.serial


def _cells(workloads=("leela", "exchange2", "gamess", "tonto")):
    return [
        SweepCell(
            workload=workload,
            configuration="fixed-capacity",
            model_names=("SRAM", "Jan_S"),
            seed=11,
            n_accesses=6000,
        )
        for workload in workloads
    ]


def _assert_identical(results, reference):
    assert len(results) == len(reference)
    for got, want in zip(results, reference):
        assert set(got) == set(want)
        for name in want:
            assert got[name] == want[name]


@pytest.fixture(scope="module")
def reference():
    """Undisturbed serial results for the standard cell set."""
    return ExperimentContext().run_cells(_cells())


class TestWorkerKill:
    def test_sigkill_mid_cell_recovers_and_matches(
        self, reference, fault_state, monkeypatch
    ):
        """A worker SIGKILLed mid-cell breaks the pool; the respawned
        pool re-runs the lost cells and the sweep completes with
        results identical to an undisturbed run."""
        arm_hook(monkeypatch, "kill_once", workload="gamess")
        results = run_cells(
            _cells(), jobs=2,
            policy=FaultPolicy(max_retries=2, backoff_s=0.01),
        )
        _assert_identical(results, reference)

    def test_repeated_kills_degrade_to_serial_and_match(
        self, reference, fault_state, monkeypatch
    ):
        """A cell whose worker dies on *every* attempt exhausts the
        pool respawn budget; the surviving cells (and the killer cell
        itself) finish in-process and still match the reference."""
        arm_hook(monkeypatch, "kill_always", workload="gamess")
        results = run_cells(
            _cells(), jobs=2,
            policy=FaultPolicy(max_retries=3, backoff_s=0.01),
        )
        _assert_identical(results, reference)


def _pool_sweep(policy):
    return lambda cells: run_cells(cells, jobs=2, policy=policy)


def _serial_sweep(policy):
    return ExperimentContext(jobs=1, fault_policy=policy).run_cells


@pytest.fixture(params=[_pool_sweep, _serial_sweep], ids=["pool", "serial"])
def sweep(request):
    """``policy -> run(cells)`` through the process pool or the serial
    in-process path: both honour the same fault policy."""
    return request.param


class TestTransientFailures:
    def test_two_transient_failures_then_success(
        self, sweep, reference, fault_state, monkeypatch
    ):
        """Retries with backoff absorb transient cell exceptions."""
        arm_hook(monkeypatch, "fail_twice", workload="exchange2")
        results = sweep(FaultPolicy(max_retries=2, backoff_s=0.01))(_cells())
        _assert_identical(results, reference)

    def test_exhausted_retries_yield_partial_result(
        self, sweep, reference, fault_state, monkeypatch
    ):
        """An unrecoverable cell fails the sweep with every completed
        result preserved — nothing is discarded."""
        arm_hook(monkeypatch, "always_fail", workload="gamess")
        with pytest.raises(PartialResultError) as excinfo:
            sweep(FaultPolicy(max_retries=1, backoff_s=0.01))(_cells())
        error = excinfo.value
        assert set(error.failures) == {2}  # gamess is the third cell
        assert set(error.completed) == {0, 1, 3}
        for index, results in error.completed.items():
            _assert_identical([results], [reference[index]])

    def test_library_errors_fail_fast_without_retry(self, sweep, fault_state):
        """Deterministic ReproErrors (here: unknown workload) must not
        burn retries — every attempt would fail identically, and a
        retry would sleep out the minute-long backoff."""
        bad = [SweepCell("no-such-workload", "fixed-capacity", ("SRAM",), seed=1)]
        bad += _cells(("leela",))
        with pytest.raises(PartialResultError) as excinfo:
            sweep(FaultPolicy(max_retries=5, backoff_s=60.0))(bad)
        assert set(excinfo.value.failures) == {0}
        assert "no-such-workload" in excinfo.value.failures[0]
        assert set(excinfo.value.completed) == {1}


class TestHangingWorker:
    def test_hung_cell_times_out_others_complete(
        self, reference, fault_state, monkeypatch
    ):
        """A hung worker is bounded by the cell timeout: the stuck cell
        fails, the pool is abandoned (hung process force-killed), and
        every other cell still completes correctly."""
        arm_hook(monkeypatch, "hang", workload="gamess")
        with pytest.raises(PartialResultError) as excinfo:
            run_cells(
                _cells(), jobs=2,
                policy=FaultPolicy(cell_timeout_s=1.5, max_retries=0),
            )
        error = excinfo.value
        assert set(error.failures) == {2}
        assert "timed out" in error.failures[2]
        assert set(error.completed) == {0, 1, 3}
        for index, results in error.completed.items():
            _assert_identical([results], [reference[index]])


class TestOnResultCallback:
    def test_fires_exactly_once_per_cell_despite_kill(
        self, fault_state, monkeypatch
    ):
        arm_hook(monkeypatch, "kill_once", workload="gamess")
        seen = []
        run_cells(
            _cells(), jobs=2,
            policy=FaultPolicy(max_retries=2, backoff_s=0.01),
            on_result=lambda index, cell, results: seen.append(index),
        )
        assert sorted(seen) == [0, 1, 2, 3]
