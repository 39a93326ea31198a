#!/usr/bin/env python
"""Regenerate the golden-result regression snapshots.

Runs every pinned experiment at the golden scale/seed and rewrites
``tests/golden/snapshots/<experiment>.json``.  Run this ONLY when a
change to the numbers is intended — review the diff it produces like
any other code change; the golden suite (``tests/golden/``) exists to
make unintended numeric drift loud.

Usage::

    PYTHONPATH=src python tools/regen_golden.py [--only table2 ...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.common import ExperimentContext  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.validate.golden import save_snapshot  # noqa: E402
from repro.workloads.generators import DEFAULT_SEED  # noqa: E402

#: The pinned scale: small enough for a fast suite, large enough that
#: every experiment exercises its full code path.
GOLDEN_SCALE = 0.05

#: The pinned workload seed.
GOLDEN_SEED = DEFAULT_SEED

#: Experiments pinned by the golden suite.
GOLDEN_EXPERIMENTS = (
    "table2",
    "table3",
    "table5",
    "table6",
    "figure1",
    "figure2",
    "figure4",
    "coresweep",
    "sensitivity",
    "lifetime",
    "techniques",
    "compression",
    "dse",
)

SNAPSHOT_DIR = REPO / "tests" / "golden" / "snapshots"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="regenerate only these experiments (default: all)",
    )
    args = parser.parse_args(argv)
    names = args.only if args.only else GOLDEN_EXPERIMENTS
    unknown = sorted(set(names) - set(GOLDEN_EXPERIMENTS))
    if unknown:
        parser.error(
            f"not golden experiments: {', '.join(unknown)} "
            f"(choose from {', '.join(GOLDEN_EXPERIMENTS)})"
        )
    context = ExperimentContext(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    features = None
    for name in names:
        title, render, features = run_experiment(name, context, features)
        path = save_snapshot(
            SNAPSHOT_DIR / f"{name}.json",
            {
                "experiment": name,
                "scale": GOLDEN_SCALE,
                "seed": GOLDEN_SEED,
                "title": title,
                "render": render,
            },
        )
        lines = len(render.splitlines())
        print(f"wrote {path.relative_to(REPO)} ({lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
