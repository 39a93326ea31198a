"""Microbenchmarks for the performance-critical library components."""

import numpy as np

from repro import units
from repro.prism.entropy import global_entropy, local_entropy
from repro.prism.profile import extract_features
from repro.sim.cache import SetAssocCache
from repro.sim.config import gainestown
from repro.sim.hierarchy import filter_private
from repro.sim.llc import simulate_llc
from repro.sim.system import replay_llc
from repro.nvsim.published import sram_baseline
from repro.workloads.generators import generate_trace


def test_bench_trace_generation(benchmark):
    trace = benchmark(generate_trace, "leela", 20190901, 50_000)
    assert len(trace) == 50_000


def test_bench_cache_access_loop(benchmark):
    rng = np.random.default_rng(9)
    blocks = rng.integers(0, 1 << 16, size=20_000)
    writes = rng.random(20_000) < 0.3

    def run():
        cache = SetAssocCache(2 * units.MB, 64, 16)
        for block, is_write in zip(blocks, writes):
            cache.access(int(block), bool(is_write))
        return cache.stats.misses

    misses = benchmark(run)
    assert misses > 0


def test_bench_private_filter(benchmark):
    trace = generate_trace("leela", n_accesses=30_000)
    arch = gainestown()
    result = benchmark.pedantic(
        filter_private, args=(trace, arch), rounds=1, iterations=1
    )
    assert result.total_accesses == 30_000


def test_bench_private_filter_reference(benchmark):
    """The dict-of-caches reference engine on the same workload, for a
    side-by-side with ``test_bench_private_filter`` (the default vector
    engine's batched loop)."""
    trace = generate_trace("leela", n_accesses=30_000)
    arch = gainestown()
    result = benchmark.pedantic(
        filter_private,
        args=(trace, arch),
        kwargs={"engine": "reference"},
        rounds=1,
        iterations=1,
    )
    assert result.total_accesses == 30_000


def test_bench_private_filter_multithreaded(benchmark):
    """Coherence-heavy path: the multi-threaded NPB trace exercises the
    directory, the most expensive part of private filtering."""
    trace = generate_trace("cg", n_accesses=30_000)
    arch = gainestown()
    result = benchmark.pedantic(
        filter_private, args=(trace, arch), rounds=1, iterations=1
    )
    assert result.total_accesses == 30_000


def test_bench_llc_replay(benchmark):
    trace = generate_trace("bzip2", n_accesses=40_000)
    arch = gainestown()
    private = filter_private(trace, arch)
    counts = benchmark.pedantic(
        replay_llc,
        args=(private, sram_baseline(), arch),
        rounds=1,
        iterations=1,
    )
    assert counts.read_lookups > 0


def test_bench_llc_replay_reference(benchmark):
    """Reference-engine LLC replay, side-by-side with
    ``test_bench_llc_replay`` (the default vector engine)."""
    trace = generate_trace("bzip2", n_accesses=40_000)
    arch = gainestown()
    private = filter_private(trace, arch)
    counts = benchmark.pedantic(
        simulate_llc,
        args=(private.stream,),
        kwargs={
            "capacity_bytes": sram_baseline().capacity_bytes,
            "associativity": arch.llc_associativity,
            "block_bytes": arch.llc_block_bytes,
            "n_cores": arch.n_cores,
            "mlp_window": arch.mlp_window_instructions,
            "mlp_ceiling": arch.max_mlp,
            "engine": "reference",
        },
        rounds=1,
        iterations=1,
    )
    assert counts.read_lookups > 0


def test_bench_entropy_extraction(benchmark):
    rng = np.random.default_rng(10)
    addresses = rng.integers(0, 1 << 32, size=200_000).astype(np.uint64)
    value = benchmark(global_entropy, addresses)
    assert value > 0


def test_bench_feature_extraction(benchmark):
    trace = generate_trace("mg", n_accesses=60_000)
    features = benchmark(extract_features, trace)
    assert features.total_reads > 0
