#!/usr/bin/env python3
"""Gate a change on alternating A/B pairs of the repository benchmark.

Usage (from anywhere in a checkout)::

    python3 scripts/perf_gate.py BASE [NEW]

BASE and NEW are git revisions; NEW defaults to this checkout's working
tree, uncommitted edits included.  Each revision given is checked out in
a temporary ``git worktree`` and runs its own ``benchmarks/perf/run.py``
at the run length its ``BENCHMARK.json`` fixes, over every workload.
The two sides run ``PAIRS`` alternating pairs (base first in odd pairs,
new first in even ones).  The rows, their labels and the printed table
are those of BASE's ``benchmarks/perf/compare.py`` and ``BENCHMARK.json``,
so a change is judged by the bounds and the rule it is merged against.

Exits with 1 when a row is ``worse``, when a new-side run does not
report a workload BASE declares or reports it not ``correct`` (a failed
op or nothing attempted), or when a ``run.py`` call fails.  An
``unresolved`` row passes.  Every run's ``--out`` file
(``base-<pair>.json``, ``new-<pair>.json``) and the table
(``compare.txt``) are left in ``perf-gate/`` at the checkout root,
which each call empties first.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perf-gate")

#: Pairs of every workload.  compare.py labels a wide-spread row
#: ``worse`` only when every new run is worse than every base run; for
#: two equal revisions that happens by chance once in C(10, 5) = 252
#: rows with five runs a side, against once in 20 with three.  One
#: run.py call over the four workloads takes ~55 s on a 2-vCPU host, so
#: five pairs take ~9 min.
PAIRS = 5

#: ``run(side, out)`` runs that side's run.py with ``--out out`` and
#: returns its exit code.
Runner = Callable[[str, str], int]


def load_rules(tree: str):
    """``tree``'s ``BENCHMARK.json`` and its ``benchmarks/perf/compare.py``,
    imported without putting the benchmark's directory on ``sys.path``."""
    with open(os.path.join(tree, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    path = os.path.join(tree, "benchmarks", "perf", "compare.py")
    module_spec = importlib.util.spec_from_file_location("perf_compare", path)
    compare = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(compare)
    return spec, compare


def gate(run: Runner, out: str, rules: str) -> int:
    """Run the pairs through ``run``, writing their results to ``out``,
    and judge them by the tree ``rules``; print the table and the
    decision, and return the exit code."""
    spec, compare = load_rules(rules)
    files = {"base": [], "new": []}
    for pair in range(1, PAIRS + 1):
        for side in ("base", "new") if pair % 2 else ("new", "base"):
            path = os.path.join(out, f"{side}-{pair}.json")
            code = run(side, path)
            if code != 0:
                print(f"perf gate: FAIL: the {side} side's run.py exited with {code}")
                return 1
            files[side].append(path)

    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        compare.main(["--base", *files["base"], "--new", *files["new"]])
    with open(os.path.join(out, "compare.txt"), "w") as handle:
        handle.write(table.getvalue())
    print(table.getvalue(), end="")
    base, new = compare.load(files["base"]), compare.load(files["new"])
    rows = compare.compare(base, new, spec)
    failures = [
        f"{row['workload']} {row['metric']} is worse"
        for row in rows if row["label"] == "worse"
    ]
    for pair, path in enumerate(files["new"], 1):
        with open(path) as handle:
            results = json.load(handle)["workloads"]
        for name in [entry["name"] for entry in spec["workloads"]]:
            result = results.get(name)
            if result is None:
                failures.append(f"{name}: new run {pair} did not run it")
            elif not result["correct"]:
                failures.append(
                    f"{name}: new run {pair} is not correct "
                    f"{result['mismatches'][:3]}"
                )
    for failure in failures:
        print(f"perf gate: FAIL: {failure}")
    print(f"perf gate: {'fail' if failures else 'pass'}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument(
        "new", nargs="?",
        help="git revision to judge (default: this checkout's working tree)",
    )
    args = parser.parse_args(argv)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    scratch = tempfile.mkdtemp(prefix="perf-gate-")
    trees = {"new": ROOT}
    try:
        for side, revision in (("base", args.base), ("new", args.new)):
            if revision is not None:
                tree = os.path.join(scratch, side)
                subprocess.run(
                    ["git", "-C", ROOT, "worktree", "add", "--detach", tree, revision],
                    check=True,
                )
                trees[side] = tree

        def run(side: str, out: str) -> int:
            command = [sys.executable, "benchmarks/perf/run.py", "--out", out]
            print(f"perf gate: {side}: {' '.join(command[1:])}", flush=True)
            return subprocess.call(command, cwd=trees[side])

        return gate(run, OUT, trees["base"])
    finally:
        for tree in trees.values():
            if tree != ROOT:
                subprocess.run(
                    ["git", "-C", ROOT, "worktree", "remove", "--force", tree]
                )
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
