#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds ``result-*.json`` files written by ``run.py`` (its
``perfbench/out/``).  For every workload and metric the medians of both
sides, their quartile spreads and the after/before ratio are printed.
Calibrated seconds are only comparable when both sides used the same
calibration kernel and reference, so mixed sets are refused (exit 2).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    """``{(workload, trace): {metric: [values]}}`` and the yardsticks used."""
    values = defaultdict(lambda: defaultdict(list))
    yardsticks = set()
    for path in sorted(Path(directory).glob("result-*.json")):
        record = json.loads(path.read_text())
        yardsticks.add((record["kernel_version"], record["reference_s"]))
        for name, metric in record["metrics"].items():
            values[(record["workload"], record["trace"])][name].append(metric["value"])
    return values, yardsticks


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (before, old), (after, new) = load(argv[0]), load(argv[1])
    yardsticks = old | new
    if len(yardsticks) != 1:
        print("error: refusing to compare runs made with different calibration "
              f"kernels or references: {sorted(yardsticks)}", file=sys.stderr)
        return 2
    print(f"{'workload':<11} {'metric':<32} {'before':>12} {'after':>12} "
          f"{'ratio':>7} {'spread':>15}")
    for key in sorted(set(before) & set(after)):
        for name in sorted(set(before[key]) & set(after[key])):
            a, b = before[key][name], after[key][name]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = f"{mb / ma:7.3f}" if ma else "      -"
            print(f"{key[0]:<11} {name:<32} {ma:12.5g} {mb:12.5g} {ratio} "
                  f"{spread(a):7.1%} {spread(b):7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
