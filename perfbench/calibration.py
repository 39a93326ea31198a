"""Frozen host-speed yardstick for calibrated seconds.

A shared or virtualised host changes speed from minute to minute, so
raw host seconds of one run are not comparable with another's.  Each
unit of work (an experiment, a set-up probe, a block of requests) is
therefore timed between two runs of a fixed kernel, and reported in
*calibrated seconds*::

    calibrated = host_seconds * reference / mean(kernel_before, kernel_after)

The kernel mixes the two kinds of work the simulator does: a
pure-Python dict-LRU loop (the per-access replay paths) and numpy
``unique``/``argsort`` (the vector engine).  It imports nothing from
``repro``, so no change to the program can move the yardstick, and it
checks its own output on every run, so an edit to the kernel cannot
change the yardstick silently: bump ``KERNEL_VERSION`` and re-measure
the reference in ``BENCHMARK.json`` instead.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Version of the kernel below; runs made with different versions are
#: never compared.
KERNEL_VERSION = 1

#: The kernel's own output: (LRU misses, distinct numpy keys, order checksum).
EXPECTED_OUTPUT = (8511, 40009, 1762513)

_LOOP = 20_000
_KEYS = 6151
_CAPACITY = 4096
_ARRAY = 60_000


class CalibrationError(RuntimeError):
    """The yardstick itself is wrong or does not match the reference."""


def kernel() -> tuple:
    """The fixed work; returns its output tuple."""
    cache: dict = {}
    x = 1
    misses = 0
    for _ in range(_LOOP):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % _KEYS
        if cache.pop(key, None) is None:
            misses += 1
            if len(cache) >= _CAPACITY:
                del cache[next(iter(cache))]
        cache[key] = True
    keys = (np.arange(_ARRAY, dtype=np.int64) * 2654435761) % 40009
    distinct = np.unique(keys)
    order = np.argsort(keys, kind="stable")
    return misses, int(distinct.size), int(order[::997].sum())


def time_kernel() -> float:
    """Host seconds of one kernel run, with the cyclic GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        output = kernel()
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if output != EXPECTED_OUTPUT:
        raise CalibrationError(
            f"calibration kernel v{KERNEL_VERSION} returned {output}, "
            f"expected {EXPECTED_OUTPUT}: the yardstick changed"
        )
    return elapsed


def parse_reference(text: str) -> float:
    """Parse ``<version>:<seconds>`` and refuse another kernel version."""
    version, sep, seconds = text.partition(":")
    try:
        reference = float(seconds)
        same = sep and int(version) == KERNEL_VERSION
    except ValueError:
        raise CalibrationError(f"bad --calibration {text!r}; want VERSION:SECONDS")
    if not same:
        raise CalibrationError(
            f"--calibration names kernel v{version}, but this is kernel "
            f"v{KERNEL_VERSION}: re-measure the reference"
        )
    if not reference > 0:
        raise CalibrationError(f"reference calibration must be > 0, got {text!r}")
    return reference


class Yardstick:
    """Times units of work between kernel runs.

    The kernel run after one unit is the "before" run of the next, so
    ``n`` back-to-back units cost ``n + 1`` kernel runs.
    """

    def __init__(self, reference: float) -> None:
        self.reference = reference
        time_kernel()  # the first run pays for cold caches
        self.samples = [time_kernel()]

    def measure(self, work):
        """Run ``work()``; returns ``(result, host_s, factor)``.

        ``host_s * factor`` is the unit's calibrated time.
        """
        before = self.samples[-1]
        gc.collect()  # every unit starts from the same collector state
        start = time.perf_counter()
        result = work()
        host = time.perf_counter() - start
        after = time_kernel()
        self.samples.append(after)
        return result, host, self.reference * 2.0 / (before + after)
