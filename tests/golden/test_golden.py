"""Golden-result regression suite.

Every pinned experiment is re-run at the golden scale/seed and its full
rendered text compared against ``tests/golden/snapshots/`` with the
tolerance-aware comparator (:mod:`repro.validate.golden`): structure
must match exactly, numbers within 1e-6 relative.  When a numeric
change is *intended*, regenerate with ``tools/regen_golden.py`` and
review the snapshot diff.  The experiments whose cells reach the
process pool are rendered a second time with two workers against the
same snapshots, so parallel == serial is pinned to the goldens too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentContext
from repro.experiments.runner import run_experiment
from repro.obs.metrics import scoped_registry
from repro.validate.golden import compare_rendered, load_snapshot

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

from regen_golden import (  # noqa: E402
    GOLDEN_EXPERIMENTS,
    GOLDEN_SCALE,
    GOLDEN_SEED,
    SNAPSHOT_DIR,
)

#: The experiments that send cells through ``ExperimentContext.run_cells``
#: (the others use sessions directly, simulate nothing, or run serially).
POOL_EXPERIMENTS = ("figure1", "figure2", "figure4", "coresweep", "sensitivity", "dse")

# PRISM features are experiment-independent; extract once and reuse
# across the parametrized cases exactly as run_all does.
_features_cache = {}


def _run(name: str, jobs: int = 1):
    context = ExperimentContext(scale=GOLDEN_SCALE, seed=GOLDEN_SEED, jobs=jobs)
    title, render, features = run_experiment(
        name, context, _features_cache.get("features")
    )
    _features_cache["features"] = features
    return title, render


def test_snapshot_set_is_exactly_the_pinned_experiments():
    on_disk = sorted(p.stem for p in SNAPSHOT_DIR.glob("*.json"))
    assert on_disk == sorted(GOLDEN_EXPERIMENTS)


def _assert_matches_snapshot(name: str, jobs: int = 1) -> None:
    snapshot = load_snapshot(SNAPSHOT_DIR / f"{name}.json")
    assert snapshot["experiment"] == name
    assert snapshot["scale"] == GOLDEN_SCALE
    assert snapshot["seed"] == GOLDEN_SEED
    title, render = _run(name, jobs)
    assert title == snapshot["title"]
    mismatches = compare_rendered(snapshot["render"], render, label=name)
    assert not mismatches, (
        f"{len(mismatches)} golden mismatches for {name} at jobs={jobs} "
        "(tools/regen_golden.py regenerates if the change is intended):\n"
        + "\n".join(mismatches)
    )


@pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
def test_golden(name: str):
    _assert_matches_snapshot(name)


def test_pool_renders_match_the_snapshots():
    """With two workers every pool experiment renders its snapshot, and
    each pool cell is counted once as an experiment cell: workers run
    cells through the serial path's ``ExperimentContext.run_cell``."""
    for name in POOL_EXPERIMENTS:
        with scoped_registry() as registry:
            _assert_matches_snapshot(name, jobs=2)
        cells = registry.counters.get("parallel.cells", 0)
        assert cells > 0, f"{name} never reached the pool"
        assert registry.counters.get("experiments.cells") == cells, name


def test_snapshots_are_canonical_json():
    # regen writes sorted-key, indent-2 JSON with a trailing newline;
    # hand-edited snapshots would break diff review.
    for path in SNAPSHOT_DIR.glob("*.json"):
        text = path.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n", (
            f"{path.name} is not canonical — rewrite via tools/regen_golden.py"
        )
