"""Compare two sets of perf-benchmark runs, metric by metric.

    python3 benchmarks/perf/compare.py --base A.json... --new B.json...

The files are ``run.py --out`` results; list both sides in the order
they ran, so that the n-th base run pairs with the n-th new run.  Each
workload x end-to-end metric gets one row with both sides' median and
quartiles and one label, using the metric's ``bound`` and direction from
``BENCHMARK.json``:

* ``worse``: the new median is worse than the base median by more than
  the bound, and either each side's spread (quartile distance over
  median) is within the bound or every new run is worse than every
  base run;
* ``better``: at least ten pairs, the new run wins nine tenths of them,
  and the medians differ by more than the base runs' quartile distance;
* ``unresolved``: not worse, not better, and a side's spread is wider
  than the bound, unless every new run is better than every base run;
* ``unchanged``: otherwise.

Exits with 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Pairs a gain needs before it can be claimed.
MIN_PAIRS = 10
#: Share of pairs the new side must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def classify(base: List[float], new: List[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b1, b_median, b3 = quartiles(base)
    n1, n_median, n3 = quartiles(new)
    worse_by = sign * (n_median - b_median) / abs(b_median)
    spread = max((b3 - b1) / abs(b_median), (n3 - n1) / abs(n_median))
    every_worse = min(sign * v for v in new) > max(sign * v for v in base)
    every_better = max(sign * v for v in new) < min(sign * v for v in base)
    if worse_by > bound:
        return "worse" if spread <= bound or every_worse else "unresolved"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (b_median - n_median) > b3 - b1
    ):
        return "better"
    if spread > bound and not every_better:
        return "unresolved"
    return "unchanged"


def load(paths: List[str]) -> Dict[str, List[dict]]:
    """Workload -> its results, one per file that ran it."""
    runs: Dict[str, List[dict]] = {}
    for path in paths:
        with open(path) as handle:
            for workload, result in json.load(handle)["workloads"].items():
                runs.setdefault(workload, []).append(result)
    return runs


def compare(base: Dict[str, List[dict]], new: Dict[str, List[dict]], spec: dict) -> List[dict]:
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            left = [r["metrics"][name]["value"] for r in base[workload] if name in r["metrics"]]
            right = [r["metrics"][name]["value"] for r in new[workload] if name in r["metrics"]]
            if not left or not right:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": quartiles(left),
                    "new": quartiles(right),
                    "bound": metric["bound"],
                    "label": classify(left, right, metric["bound"], metric["better"]),
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, metavar="FILE")
    parser.add_argument("--new", nargs="+", required=True, metavar="FILE")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    base, new = load(args.base), load(args.new)
    rows = compare(base, new, spec)

    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':14} {'metric':14} {'unit':6} {'base median [q1, q3]':30} "
          f"{'new median [q1, q3]':30} {'change':>8} {'bound':>6}  label")
    for row in rows:
        change = (row["new"][1] - row["base"][1]) / abs(row["base"][1])
        print(f"{row['workload']:14} {row['metric']:14} {row['unit']:6} "
              f"{cell(row['base']):30} {cell(row['new']):30} "
              f"{change:>+8.1%} {row['bound']:>6.1%}  {row['label']}")
    for workload in sorted(base.keys() & new.keys()):
        base_runs, new_runs = base[workload], new[workload]
        print(f"{workload}: failed ops "
              f"base {sum(r['failed'] for r in base_runs)}/{sum(r['attempted'] for r in base_runs)}, "
              f"new {sum(r['failed'] for r in new_runs)}/{sum(r['attempted'] for r in new_runs)}")
    return 1 if any(row["label"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
