"""Fault-injection hooks fired inside sweep workers.

``ExperimentContext.run_cell`` calls ``REPRO_FAULT_HOOK``
(``module:function``, through :func:`repro.sim.parallel.fire_hook`)
with each cell before running it, in a pool worker or in-process.
These hooks implement the harness's
deliberate failures — killing, stalling or crashing a worker at a
deterministic point.  They coordinate across processes through files in
``REPRO_FAULT_STATE`` (``O_EXCL`` creation = exactly-once semantics),
and most target a single workload (``REPRO_FAULT_WORKLOAD``) so the
rest of the sweep proceeds normally.

Workers are forked from the test process, so this module is already
imported (or importable via the inherited ``sys.path``) on their side.
"""

from __future__ import annotations

import os
import signal
import time

#: Directory for cross-process once-only coordination files.
STATE_ENV = "REPRO_FAULT_STATE"

#: Workload name the fault targets (others run clean).
WORKLOAD_ENV = "REPRO_FAULT_WORKLOAD"


def _targets(cell) -> bool:
    wanted = os.environ.get(WORKLOAD_ENV)
    return wanted is None or cell.workload == wanted


def _once(tag: str) -> bool:
    """True exactly once per (state dir, tag) across all processes."""
    state = os.environ.get(STATE_ENV)
    if not state:
        return False
    try:
        fd = os.open(os.path.join(state, f"{tag}.fired"),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def kill_once(cell) -> None:
    """SIGKILL this worker mid-cell, the first time the target runs."""
    if _targets(cell) and _once("kill"):
        os.kill(os.getpid(), signal.SIGKILL)


def kill_always(cell) -> None:
    """SIGKILL the worker every time the target cell runs (exhausts
    pool respawns, forcing the serial in-process fallback — where the
    hook must *not* kill the parent, so it only fires in children)."""
    state = os.environ.get(STATE_ENV)
    if not _targets(cell) or not state:
        return
    parent = os.path.join(state, "parent.pid")
    if os.path.exists(parent):
        with open(parent) as handle:
            if handle.read().strip() == str(os.getpid()):
                return  # serial fallback in the parent: run clean
    os.kill(os.getpid(), signal.SIGKILL)


def fail_twice(cell) -> None:
    """Raise a transient error on the target cell's first two attempts."""
    if not _targets(cell):
        return
    for attempt in ("fail1", "fail2"):
        if _once(attempt):
            raise RuntimeError(f"injected transient failure ({attempt})")


def always_fail(cell) -> None:
    """Raise a transient error on every attempt of the target cell."""
    if _targets(cell):
        raise RuntimeError("injected permanent transient-looking failure")


def hang(cell) -> None:
    """Stall the target cell far past any reasonable timeout."""
    if _targets(cell):
        time.sleep(300)


def sleepy(cell) -> None:
    """Slow every cell down (paces a run so a test can kill it mid-way)."""
    time.sleep(float(os.environ.get("REPRO_FAULT_SLEEP", "0.2")))
