#!/usr/bin/env python3
"""Check every backward pass of the serial full-suite eval against the
reference fold of Figure 7, and every literal those passes lowered
against the formula-level wp derivation.

Runs ``evaluate_benchmark`` on each suite benchmark and analysis, in
suite order, with the tracer's ``backward_trace`` wrapped so that each
pass is compared, field by field, with the plain :class:`Dnf` fold of
``tests/core/test_meta_reference.py``.  After each unit, every
(table key, literal) its wp memos lowered must have the masks and peak
that ``universe.dnf`` gives for the reference derivation.  Prints one
line per unit and exits 1 on the first pass or literal that disagrees,
printing it.

Usage (from the repository root)::

    PYTHONPATH=src:. python scripts/backward_oracle.py
"""

from __future__ import annotations

import sys
import time

from repro.bench.suite import BENCHMARK_NAMES
from tests.core.test_meta_reference import BackwardMismatch, check_eval


def main() -> int:
    started = time.perf_counter()

    def report(name, analysis, passes, lowered, _result):
        print(
            f"{name:>10} {analysis:<10} {passes:4d} passes, "
            f"{lowered:6d} lowered literals agree",
            flush=True,
        )

    try:
        passes, lowered = check_eval(BENCHMARK_NAMES, report)
    except BackwardMismatch as error:
        print(f"MISMATCH: {error}", flush=True)
        return 1
    seconds = time.perf_counter() - started
    print(
        f"all {passes} backward passes agree with the reference fold, and "
        f"all {lowered} lowered literals with the reference derivation "
        f"({seconds:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
