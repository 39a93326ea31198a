"""Strict-mode overhead guard.

The firewall's acceptance bar: strict validation adds at most 2% to a
reference sweep.  The guards run a handful of float comparisons per
*replay* — work that costs milliseconds — so rather than timing a full
noisy sweep end to end, this pins the ratio directly: the measured
per-call cost of every guard the hot path invokes, scaled by a generous
calls-per-replay estimate, against the measured wall time of a real
replay (the same technique ``tests/obs/test_overhead.py`` uses for the
instrumentation hooks).
"""

import time

from repro.sim.config import gainestown
from repro.sim.hierarchy import filter_private
from repro.sim.system import replay_llc
from repro.validate.guard import guard_counts, guard_model, guard_result

#: Guard invocations per simulated cell, over-estimated.  A cell
#: actually guards one model, one counts object and one result (~3
#: calls); 10 leaves a factor-of-three of slack.
CALLS_PER_REPLAY = 10

#: Loop length for timing the guards.
N_CALLS = 500


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_strict_guards_cost_under_two_percent_of_a_replay(
    leela_trace, leela_session, xue_model
):
    arch = gainestown()
    private = filter_private(leela_trace, arch)
    # One simulated cell's heavy stages: the private-level filter plus
    # one LLC replay — the work each trio of guard calls rides on.
    replay_s = _best_of(
        3, lambda: (filter_private(leela_trace, arch),
                    replay_llc(private, xue_model, arch)),
    )

    result = leela_session.run(xue_model)
    counts = result.counts

    def guard_storm():
        for _ in range(N_CALLS):
            guard_model(xue_model)
            guard_counts(counts)
            guard_result(result)

    storm_s = _best_of(5, guard_storm)
    per_call_s = storm_s / (N_CALLS * 3)
    overhead_per_replay_s = per_call_s * CALLS_PER_REPLAY

    assert overhead_per_replay_s < 0.02 * replay_s, (
        f"strict guards cost {overhead_per_replay_s * 1e6:.1f}us per replay "
        f"({CALLS_PER_REPLAY} calls at {per_call_s * 1e9:.0f}ns) vs replay "
        f"time {replay_s * 1e3:.1f}ms"
    )

