"""The batched private filter and the vector LLC rounds against the
reference loops, one scenario pinned per test so each keeps its own
example budget; the unpinned matrix is ``test_replay_conformance.py``.
"""

from hypothesis import example, given, settings

from repro.sim.hierarchy import filter_private, filter_private_reference
from repro.sim.llc import simulate_llc, simulate_llc_reference
from tests.property.test_replay_conformance import (
    UINT64_EXTREMES,
    assert_private_equal,
    cases,
)


def _filter_matches(case):
    trace, arch = case.trace(), case.arch()
    assert_private_equal(
        filter_private(trace, arch), filter_private_reference(trace, arch)
    )


@given(case=cases(threads=(1, 1), n_cores=1, prefetch=False))
@settings(max_examples=60, deadline=None)
def test_private_filter_single_thread_equivalence(case):
    _filter_matches(case)


@given(case=cases(threads=(2, 5), n_cores=4, prefetch=False))
@settings(max_examples=60, deadline=None)
def test_private_filter_coherence_equivalence(case):
    """Directory fills, invalidations, downgrades and coherence
    writebacks match event for event."""
    _filter_matches(case)


@given(case=cases(threads=(1, 4), n_cores=2, prefetch=True))
@settings(max_examples=40, deadline=None)
def test_private_filter_prefetch_equivalence(case):
    _filter_matches(case)


@given(case=cases(n_cores=4))
@example(case=UINT64_EXTREMES)
@settings(max_examples=60, deadline=None)
def test_llc_replay_equivalence(case):
    stream = case.stream()
    assert simulate_llc(stream, **case.geometry) == simulate_llc_reference(
        stream, **case.geometry
    )


@given(case=cases(threads=(1, 4), n_cores=2))
@settings(max_examples=40, deadline=None)
def test_full_path_equivalence(case):
    """The filter's stream fed to the LLC, production against reference
    at both levels."""
    trace, arch = case.trace(), case.arch()
    got = simulate_llc(filter_private(trace, arch).stream, **case.geometry)
    want = simulate_llc_reference(
        filter_private_reference(trace, arch).stream, **case.geometry
    )
    assert got == want
