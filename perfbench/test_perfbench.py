"""The benchmark's own checks.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

The traced-run tests run each workload once, briefly (about a minute
and a half in all).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run(args, cwd=REPO):
    return subprocess.run(
        [sys.executable] + BENCHMARK["command"][1:] + args,
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_kernel_output_is_frozen():
    assert calibration.kernel() == calibration.EXPECTED_OUTPUT
    assert calibration.time_kernel() > 0


def test_reference_names_this_kernel_version():
    reference = BENCHMARK["command"][BENCHMARK["command"].index("--calibration") + 1]
    assert calibration.parse_reference(reference) > 0
    with pytest.raises(calibration.CalibrationError):
        calibration.parse_reference(f"{calibration.KERNEL_VERSION + 1}:0.04")


def test_every_layer_moves_a_declared_metric_on_a_declared_workload():
    metrics = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    for layer in tracing.LAYERS + tracing.PROBED_LAYERS:
        assert layer.home in WORKLOADS
        assert layer.moves, layer.name
        for metric, workload in layer.moves:
            assert metric in metrics and workload in WORKLOADS, layer.name


def test_compare_refuses_other_kernel_versions(tmp_path, capsys):
    for version, side in ((1, "a"), (2, "b")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "result-sweep-seed1-trace0.json").write_text(json.dumps({
            "workload": "sweep", "trace": 0, "kernel_version": version,
            "reference_s": 0.04, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert "refusing" in capsys.readouterr().err


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = run(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=tmp_path)
    assert result.returncode != 0
    assert result.stdout.strip() == ""


@pytest.fixture(scope="module")
def traced():
    """One short traced run per workload: ``{workload: {metric: value}}``,
    plus ``{workload: [(metric, unit), ...]}`` as printed."""
    values, printed = {}, {}
    for workload in WORKLOADS:
        result = run(["--workload", workload, "--seed", "20190901",
                      "--seconds", "1", "--trace", "1"])
        assert result.returncode == 0, result.stderr[-3000:]
        line = json.loads(result.stdout.strip().splitlines()[-1])
        assert line["correct"] and line["failed"] == 0
        values[workload] = {name: m["value"] for name, m in line["metrics"].items()}
        printed[workload] = [(name, m["unit"]) for name, m in line["metrics"].items()]
    return values, printed


def test_traced_run_prints_every_declared_layer_metric(traced):
    declared = [(metric["name"], metric["unit"]) for metric in BENCHMARK["per_layer"]]
    for names in traced[1].values():
        assert names == declared


def test_every_layer_records_calls_on_its_home_workload(traced):
    values = traced[0]
    for layer in tracing.LAYERS:
        assert values[layer.home][f"{layer.name}.calls"] > 0, layer.name
    assert values["serve"]["serve.router.calls"] > 0
    assert values["serve"]["serve.queue.calls"] > 0


def test_self_times_and_untraced_sum_to_the_traced_pass(traced):
    for workload, values in traced[0].items():
        total = sum(values[f"{layer.name}.self_s"] for layer in tracing.LAYERS)
        total += values["untraced.self_s"]
        assert math.isclose(total, values["tracing.pass_s"], rel_tol=1e-9), workload
        assert values["untraced.share"] < 10.0, workload


def test_split_matches_the_workload_design(traced):
    def share(workload, *layers):
        return sum(traced[0][workload][f"{layer}.share"] for layer in layers)

    assert share("techniques", "techniques.replay", "endurance.wear") >= 50.0
    assert share("sweep", "techniques.replay", "endurance.wear") < 1.0
    assert share("sweep", "sim.llc", "sim.hierarchy") >= 50.0
    assert traced[0]["serve"]["serve.router.proxy_ms"] > 0
