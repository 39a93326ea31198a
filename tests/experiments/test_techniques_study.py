"""Tests for the techniques-study experiment driver."""

import pytest

from repro.experiments import techniques_study
from repro.experiments.common import ExperimentContext
from repro.nvsim.published import published_model
from repro.techniques.early_write_termination import EarlyWriteTermination
from repro.techniques.evaluate import evaluate_all
from repro.techniques.write_bypass import ReuseWriteBypass


@pytest.fixture(scope="module")
def study():
    context = ExperimentContext(scale=0.3)
    return techniques_study.run(
        context, llcs=("Kang_P",), workloads=("gobmk", "ft")
    )


class TestTechniquesStudy:
    def test_full_grid(self, study):
        # 2 workloads x 1 llc x 3 techniques.
        assert len(study.evaluations) == 6
        assert len(study.hybrids) == 2

    def test_lookup(self, study):
        evaluation = study.evaluation("gobmk", "Kang_P", "write-bypass")
        assert evaluation.workload == "gobmk"
        with pytest.raises(KeyError):
            study.evaluation("gobmk", "Kang_P", "teleportation")

    def test_ewt_energy_cut_everywhere(self, study):
        for workload in ("gobmk", "ft"):
            e = study.evaluation(workload, "Kang_P", "early-write-termination")
            assert e.energy_reduction > 0.5
            assert e.write_reduction == pytest.approx(0.0, abs=1e-9)

    def test_bypass_trades_dram_for_nvm_writes(self, study):
        e = study.evaluation("gobmk", "Kang_P", "write-bypass")
        assert e.treated.bypassed_writes > 0
        assert e.extra_dram_writes > 0

    def test_hybrid_diverts_writes_everywhere(self, study):
        # The SRAM ways absorb a meaningful share of NVM writes on
        # every workload.
        for hybrid in study.hybrids:
            assert hybrid.nvm_write_reduction > 0.02

    def test_render(self, study):
        text = techniques_study.render(study)
        assert "early-write-termination" in text
        assert "Hybrid SRAM/NVM" in text
        assert "migrations" in text


def test_each_replay_runs_once_per_workload_and_capacity():
    """``evaluate_all`` prices every technique against one baseline
    replay, and the study prices its two 2 MB LLCs on one replay of
    each technique."""
    context = ExperimentContext(scale=0.05)
    first, second = evaluate_all(
        context.trace("ft"),
        published_model("Kang_P"),
        [EarlyWriteTermination(), ReuseWriteBypass()],
        arch=context.arch,
    )
    assert first.baseline is second.baseline
    assert first.treated is not second.treated

    study = techniques_study.run(context, workloads=("ft",))
    for technique in ("wear-leveling", "write-bypass", "early-write-termination"):
        kang = study.evaluation("ft", "Kang_P", technique)
        zhang = study.evaluation("ft", "Zhang_R", technique)
        assert kang.treated is zhang.treated
        assert kang.baseline is zhang.baseline
        assert kang.treated_lifetime != zhang.treated_lifetime
