"""Unit tests for the compacted-way compressed LLC."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CompressionError, render_error
from repro.nvsim.published import published_model
from repro.techniques.compression import (
    DEFAULT_TAG_FACTOR,
    CompactedWayCache,
    CompressedLLC,
)
from repro.techniques.evaluate import evaluate_technique
from repro.techniques.replay import (
    replay_with_technique,
    replay_with_technique_reference,
)
from repro.workloads.generators import generate_trace, line_compressed_sizes
from tests.streams import llc_stream


class TestResolveTagFactor:
    def test_default(self):
        assert CompressedLLC.uniform(64).tag_factor == DEFAULT_TAG_FACTOR == 2
        assert CompactedWayCache(1024, 64, 4).tag_budget == 2 * 4

    def test_below_one_rejected(self):
        for build in (
            lambda: CompactedWayCache(1024, 64, 4, tag_factor=0),
            lambda: CompressedLLC.uniform(64, tag_factor=0),
        ):
            with pytest.raises(CompressionError) as exc:
                build()
            assert render_error(exc.value).startswith("error[COMPRESS]")
            assert exc.value.exit_code == 2


class TestCompactedWayCache:
    def test_capacity_must_divide_into_sets(self):
        with pytest.raises(CompressionError):
            CompactedWayCache(1000, 64, 4)

    def test_rejects_out_of_range_size(self):
        cache = CompactedWayCache(1024, 64, 4)
        for bad in (0, -8, 65):
            with pytest.raises(CompressionError):
                cache.access(1, False, bad)

    def test_full_size_degenerates_to_assoc_lines(self):
        cache = CompactedWayCache(4 * 64, 64, 4)  # one set, 4 ways
        for block in range(5):
            cache.access(block, False, 64)
        # Fifth full-size line evicted exactly one LRU victim.
        assert cache.peak_lines == 4
        assert not cache.access(0, False, 64).hit  # block 0 was the LRU

    def test_compacted_set_holds_more_lines(self):
        cache = CompactedWayCache(4 * 64, 64, 4, tag_factor=2)
        for block in range(8):  # quarter-size lines: 8 fit the bytes
            cache.access(block, False, 16)
        assert cache.peak_lines == 8
        for block in range(8):
            assert cache.access(block, False, 16).hit

    def test_tag_budget_caps_residency(self):
        cache = CompactedWayCache(4 * 64, 64, 4, tag_factor=2)
        for block in range(12):  # eighth-size: bytes allow 32, tags 8
            cache.access(block, False, 8)
        assert cache.peak_lines == cache.tag_budget == 8

    def test_one_miss_can_evict_many_dirty_victims(self):
        cache = CompactedWayCache(4 * 64, 64, 4, tag_factor=4)
        for block in range(16):  # 16 dirty quarter-lines: bytes full
            cache.access(block, True, 16)
        outcome = cache.access(100, False, 64)  # full-size fill
        assert not outcome.hit
        assert len(outcome.dirty_victims) == 4  # 4 x 16 B make room

    def test_mean_resident_lines_empty_cache(self):
        cache = CompactedWayCache(1024, 64, 4)
        assert cache.mean_resident_lines == 0.0

    def test_hit_keeps_stored_size_and_sticky_dirty(self):
        cache = CompactedWayCache(4 * 64, 64, 4)
        cache.access(1, True, 16)
        cache.access(1, False, 16)  # read hit: stays dirty
        victims = []
        for block in range(2, 7):
            victims += cache.access(block, False, 64).dirty_victims
        assert 1 in victims


class TestCompressedLLC:
    def test_uniform_size_fn(self):
        technique = CompressedLLC.uniform(32)
        blocks = np.array([123, 7], dtype=np.uint64)
        assert technique.line_sizes(blocks, 64).tolist() == [32, 32]

    def test_for_workload_matches_sampler(self):
        technique = CompressedLLC.for_workload("gobmk")
        blocks = np.arange(50, dtype=np.uint64)
        expected = line_compressed_sizes(blocks, "gobmk")
        # The whole array in one call, same values as the sampler.
        assert technique.line_sizes(blocks, 64).tolist() == list(expected)
        # A repeated block draws the same size again (no memo needed).
        assert technique.line_sizes(blocks[[7, 7]], 64).tolist() == (
            [int(expected[7])] * 2
        )

    def test_size_fn_out_of_range_rejected(self):
        technique = CompressedLLC(lambda blocks: np.zeros(len(blocks), int))
        with pytest.raises(CompressionError):
            technique.line_sizes(np.array([1], dtype=np.uint64), 64)

    def test_line_sizes_name_the_first_offending_block_in_stream_order(self):
        technique = CompressedLLC(
            lambda blocks: np.where(np.isin(blocks, [3, 9]), 65, 32)
        )
        blocks = np.array([5, 9, 5, 3], dtype=np.uint64)
        with pytest.raises(CompressionError, match="returned 65 for block 9,"):
            technique.line_sizes(blocks, 64)
        assert technique.line_sizes(blocks[:1], 64).tolist() == [32]

    def test_leveling_period_must_be_positive(self):
        with pytest.raises(CompressionError):
            CompressedLLC.uniform(16, leveling_period=0)

    def test_device_factors_compose_with_ewt(self):
        plain = CompressedLLC.uniform(16)
        assert plain.write_energy_factor() == 1.0
        assert plain.write_latency_factor() == 1.0
        fused = CompressedLLC.uniform(16, redundant_fraction=0.5)
        assert fused.write_energy_factor() < 1.0
        assert fused.write_latency_factor() < 1.0

    def test_replay_carries_tag_factor(self):
        # Twelve quarter-size lines of one set, read twice: the bytes
        # hold 16 and three times the four ways' tags hold all twelve,
        # where the default two times would hold eight.
        stream = llc_stream([4 * k for k in range(12)] * 2)
        for replay in (replay_with_technique, replay_with_technique_reference):
            technique = CompressedLLC.uniform(16, tag_factor=3)
            outcome = replay(stream, technique, 1024, associativity=4)
            assert outcome.counts.read_hits == 12

    def test_evaluate_technique_end_to_end(self):
        """The full seam: replay, pricing, and the parameterised
        lifetime forecast all see the compressed accounting."""
        trace = generate_trace("gobmk", n_accesses=8000)
        model = published_model("Kang_P", "fixed-capacity")
        evaluation = evaluate_technique(
            trace, model, CompressedLLC.for_workload("gobmk")
        )
        assert evaluation.technique == "compression"
        assert 0.0 < evaluation.write_bytes_reduction < 1.0
        assert evaluation.treated_write_energy_j < (
            evaluation.baseline_write_energy_j
        )
        assert evaluation.treated_lifetime.cell_write_fraction < 1.0
        gain = evaluation.lifetime_gain
        assert gain is not None and gain > 1.0
