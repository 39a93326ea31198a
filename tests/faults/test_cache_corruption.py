"""Fault injection: damaged replay-cache entries under a real sweep.

A corrupt entry (truncated, bit-flipped, zeroed — e.g. a torn disk
write or a killed worker on a non-atomic filesystem) must behave as a
quarantined miss: the sweep recomputes the value, re-stores it, and the
final results are identical to an undisturbed run.  Silent
deserialization of damaged bytes would poison every later run that
hits the entry.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentContext
from repro.sim.parallel import SweepCell, run_cells
from repro.sim.replay_cache import CACHE_DIR_ENV, default_cache, reset_default_cache

# Fault-injection tests mutate process-global state (env hooks,
# the default replay cache, child processes, signals): CI runs
# them in the dedicated non-parallel `serial` job.
pytestmark = pytest.mark.serial

#: Long enough to clear DEFAULT_MIN_ACCESSES so the sweep uses the cache.
_N_ACCESSES = 12_000


def _cells():
    return [
        SweepCell(
            workload=workload,
            configuration="fixed-capacity",
            model_names=("SRAM", "Jan_S"),
            seed=5,
            n_accesses=_N_ACCESSES,
        )
        for workload in ("leela", "exchange2")
    ]


def _serial_sweep(cells):
    """The serial path: one fresh context, cells run in-process."""
    return ExperimentContext().run_cells(cells)


def _cache_dir() -> Path:
    return Path(os.environ[CACHE_DIR_ENV])


def _truncate(path: Path) -> None:
    blob = path.read_bytes()
    path.write_bytes(blob[: max(1, len(blob) // 2)])


def _bit_flip(path: Path) -> None:
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    path.write_bytes(bytes(blob))


def _zero(path: Path) -> None:
    path.write_bytes(b"")


class TestCorruptEntries:
    @pytest.mark.parametrize("damage", [_truncate, _bit_flip, _zero])
    def test_damaged_entries_recompute_identically(self, damage):
        reference = _serial_sweep(_cells())
        entries = sorted(_cache_dir().glob("*.pkl"))
        assert entries, "warm run must populate the replay cache"
        for path in entries:
            damage(path)

        reset_default_cache()  # fresh instance: no in-memory shadow
        rerun = _serial_sweep(_cells())

        assert default_cache().corrupt >= 1
        assert len(rerun) == len(reference)
        for got, want in zip(rerun, reference):
            for name in want:
                assert got[name] == want[name]

    def test_quarantined_entries_are_rewritten(self):
        _serial_sweep(_cells()[:1])
        entries = sorted(_cache_dir().glob("*.pkl"))
        before = {p.name for p in entries}
        for path in entries:
            _bit_flip(path)

        reset_default_cache()
        _serial_sweep(_cells()[:1])

        after = {p.name for p in _cache_dir().glob("*.pkl")}
        assert after == before  # same keys, freshly re-stored
        from repro.sim.replay_cache import _unpack

        for path in _cache_dir().glob("*.pkl"):
            _unpack(path.read_bytes())  # every survivor verifies clean

    def test_corruption_in_parallel_sweep_recovers(self):
        """Workers probing damaged entries recompute instead of dying."""
        reference = _serial_sweep(_cells())
        for path in _cache_dir().glob("*.pkl"):
            _truncate(path)
        reset_default_cache()
        rerun = run_cells(_cells(), jobs=2)
        for got, want in zip(rerun, reference):
            for name in want:
                assert got[name] == want[name]
