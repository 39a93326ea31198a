"""End-to-end integration tests: the paper's headline claims.

These tests run the whole pipeline (generator -> private levels -> LLC
-> timing -> energy -> normalisation) through the public API and assert
the *shape* of the paper's results, per DESIGN.md section 5.
"""

import dataclasses

import numpy as np
import pytest

from repro import nvsim, prism, sim, units, workloads
from repro.cells import JAN, KANG, SRAM, XUE
from repro.correlate import pearson
from repro.nvsim import CacheDesign, generate_llc_model


def _versus_baseline(session, models, baseline=None):
    """Each named model's result on ``session``, normalized to the
    baseline model (the published SRAM LLC unless given)."""
    base = session.run(baseline or nvsim.sram_baseline())
    return {
        name: sim.normalize(session.run(model), base)
        for name, model in models.items()
    }


def _published(*names):
    return {name: nvsim.published_model(name) for name in names}


@pytest.fixture(scope="module")
def bzip2_session():
    trace = workloads.generate_trace("bzip2")  # full length: capacity knee
    return sim.SimulationSession(trace)


@pytest.fixture(scope="module")
def bzip2_baseline(bzip2_session):
    return bzip2_session.run(nvsim.sram_baseline())


class TestHeadlineClaims:
    def test_nvm_energy_order_of_magnitude(self, bzip2_session, bzip2_baseline):
        """Abstract: 'NVM-based LLC energy use is up to an order of
        magnitude less than that of an SRAM-based LLC'."""
        best = min(
            sim.normalize(bzip2_session.run(m), bzip2_baseline).energy_ratio
            for m in nvsim.nvm_models("fixed-capacity")
        )
        assert best < 0.1

    def test_ed2p_on_par(self, bzip2_session, bzip2_baseline):
        """Abstract: 'ED^2P is generally on par' — no worse than ~unity
        for the efficient NVMs."""
        for name in ("Jan_S", "Xue_S", "Chung_S", "Hayakawa_R"):
            norm = sim.normalize(
                bzip2_session.run(nvsim.published_model(name)), bzip2_baseline
            )
            assert norm.ed2p_ratio < 1.0

    def test_fixed_capacity_speedup_band(self, bzip2_session, bzip2_baseline):
        """Section V-A: NVM speedups neighbour -1% to -3%."""
        for model in nvsim.nvm_models("fixed-capacity"):
            norm = sim.normalize(bzip2_session.run(model), bzip2_baseline)
            assert 0.93 < norm.speedup <= 1.02, model.name

    def test_write_latency_off_critical_path(self, bzip2_session, bzip2_baseline):
        """Section V-A-7: 300 ns writes (Zhang_R) barely dent runtime."""
        norm = sim.normalize(
            bzip2_session.run(nvsim.published_model("Zhang_R")), bzip2_baseline
        )
        assert norm.speedup > 0.95

    def test_fixed_area_capacity_win(self):
        """Section V-B: dense NVMs buy capacity that wins misses back."""
        trace = workloads.generate_trace("gobmk")
        session = sim.SimulationSession(trace, configuration="fixed-area")
        baseline = session.run(nvsim.sram_baseline("fixed-area"))
        hayakawa = sim.normalize(
            session.run(nvsim.published_model("Hayakawa_R", "fixed-area")),
            baseline,
        )
        assert hayakawa.speedup > 1.05
        # And the mechanism is misses: 32 MB vs 2 MB.
        counts_small = session.counts_for(nvsim.sram_baseline("fixed-area"))
        counts_large = session.counts_for(
            nvsim.published_model("Hayakawa_R", "fixed-area")
        )
        assert counts_large.read_misses < 0.65 * counts_small.read_misses


class TestAblations:
    """The DESIGN.md ablation switches must change results in the
    physically-expected direction."""

    def test_write_backpressure_throttles_pcram(self):
        trace = workloads.generate_trace("deepsjeng", n_accesses=40_000)
        relaxed = sim.simulate_system(trace, nvsim.published_model("Zhang_R"))
        pressured_arch = dataclasses.replace(
            sim.gainestown(), llc_write_backpressure=1.0
        )
        pressured = sim.simulate_system(
            trace, nvsim.published_model("Zhang_R"), arch=pressured_arch
        )
        assert pressured.runtime_s > 1.3 * relaxed.runtime_s
        assert pressured.timing.bound == "llc"

    def test_fill_energy_ablation_raises_pcram_energy(self):
        trace = workloads.generate_trace("cg", n_accesses=40_000)
        base = sim.simulate_system(trace, nvsim.published_model("Kang_P"))
        fills_arch = dataclasses.replace(sim.gainestown(), llc_fill_writes=True)
        fills = sim.simulate_system(
            trace, nvsim.published_model("Kang_P"), arch=fills_arch
        )
        assert fills.llc_energy_j > 2 * base.llc_energy_j

    def test_entropy_skip_bits_sensitivity(self):
        trace = workloads.generate_trace("leela", n_accesses=30_000)
        coarse = prism.extract_features(trace, skip_bits=12)
        default = prism.extract_features(trace, skip_bits=10)
        fine = prism.extract_features(trace, skip_bits=6)
        assert (
            coarse.read_local_entropy
            <= default.read_local_entropy
            <= fine.read_local_entropy
        )

    def test_llc_writes_on_the_critical_path(self):
        """Section V-A-7: the paper's simulator hides LLC write latency.
        Hidden, even Zhang_R's 300 ns writes barely dent runtime;
        exposed, they throttle the slow-write technologies."""
        trace = workloads.generate_trace("deepsjeng", n_accesses=60_000)
        models = _published("Xue_S", "Zhang_R")
        hidden = _versus_baseline(sim.SimulationSession(trace), models)
        exposed_arch = dataclasses.replace(
            sim.gainestown(), llc_write_backpressure=1.0
        )
        exposed = _versus_baseline(
            sim.SimulationSession(trace, arch=exposed_arch), models
        )
        assert hidden["Zhang_R"].speedup > 0.95
        assert exposed["Zhang_R"].speedup < 0.8
        assert exposed["Xue_S"].speedup > exposed["Zhang_R"].speedup

    @pytest.mark.parametrize("source", ["published", "generated"])
    def test_conclusions_survive_the_model_source(self, source):
        """Swapping Table III for the analytical circuit models keeps
        who wins on energy and the near-unity speedups."""
        session = sim.SimulationSession(
            workloads.generate_trace("bzip2", n_accesses=80_000)
        )
        if source == "published":
            results = _versus_baseline(
                session, _published("Kang_P", "Jan_S", "Xue_S")
            )
        else:
            design = CacheDesign(capacity_bytes=2 * units.MB)
            results = _versus_baseline(
                session,
                {
                    cell.display_name: generate_llc_model(cell, design)
                    for cell in (KANG, JAN, XUE)
                },
                baseline=generate_llc_model(SRAM, design),
            )
        assert results["Jan_S"].energy_ratio < 0.3
        assert results["Kang_P"].energy_ratio > results["Xue_S"].energy_ratio
        assert 0.9 < results["Xue_S"].speedup < 1.1

    def test_figure4_correlation_survives_the_entropy_page_size(self):
        """Figure 4's AI-scope link between write local entropy and
        Jan_S energy holds at skip bits M = 6 and 12, not only at the
        paper's M = 10."""
        traces = [
            workloads.generate_trace(name, n_accesses=60_000)
            for name in ("deepsjeng", "leela", "exchange2")
        ]
        energies = np.array([
            _versus_baseline(
                sim.SimulationSession(trace), _published("Jan_S")
            )["Jan_S"].energy_ratio
            for trace in traces
        ])

        def strength(skip_bits):
            entropies = np.array([
                prism.extract_features(
                    trace, skip_bits=skip_bits
                ).write_local_entropy
                for trace in traces
            ])
            return abs(pearson(entropies, energies))

        assert strength(10) > 0.8
        assert strength(6) > 0.6
        assert strength(12) > 0.6

    def test_energy_winners_survive_the_llc_replacement_policy(self):
        """The NVM energy conclusions do not hinge on LRU, and random
        replacement beats LRU on bzip2's cyclic sweep."""
        trace = workloads.generate_trace("bzip2")  # full length: >1 sweep pass
        mpki = {}
        for policy in ("lru", "random", "srrip"):
            arch = dataclasses.replace(
                sim.gainestown(), llc_replacement=policy
            )
            session = sim.SimulationSession(trace, arch=arch)
            results = _versus_baseline(session, _published("Jan_S", "Kang_P"))
            assert results["Jan_S"].energy_ratio < 0.3, policy
            assert (
                results["Kang_P"].energy_ratio > results["Jan_S"].energy_ratio
            ), policy
            mpki[policy] = session.run(nvsim.sram_baseline()).mpki
        assert mpki["random"] < mpki["lru"]


class TestCrossModuleConsistency:
    def test_features_and_trace_agree(self):
        trace = workloads.generate_trace("ft", n_accesses=20_000)
        features = prism.extract_features(trace)
        assert features.total_reads == trace.n_reads
        assert features.total_writes == trace.n_writes

    def test_mpki_consistent_between_result_and_counts(self, bzip2_session):
        result = bzip2_session.run(nvsim.sram_baseline())
        assert result.mpki == pytest.approx(
            1000.0 * result.counts.read_misses / result.total_instructions
        )

    def test_generated_and_published_models_same_interface(self):
        trace = workloads.generate_trace("tonto", n_accesses=15_000)
        from repro.cells import XUE
        from repro.nvsim import CacheDesign, generate_llc_model

        generated = generate_llc_model(
            XUE, CacheDesign(capacity_bytes=2 * 1024 * 1024)
        )
        result = sim.simulate_system(trace, generated)
        assert result.llc_energy_j > 0
