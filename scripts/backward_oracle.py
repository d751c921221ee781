#!/usr/bin/env python3
"""Check every backward pass of the serial full-suite eval against the
reference fold of Figure 7.

Runs ``evaluate_benchmark`` on each suite benchmark and analysis, in
suite order, with the tracer's ``backward_trace`` wrapped so that each
pass is compared, field by field, with the plain :class:`Dnf` fold of
``tests/core/test_meta_reference.py``.  Prints one line per unit and
exits 1 on the first pass that disagrees, printing it.

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

    def report(name, analysis, passes, _result):
        print(f"{name:>10} {analysis:<10} {passes:4d} passes agree", flush=True)

    try:
        total = check_eval(BENCHMARK_NAMES, report)
    except BackwardMismatch as error:
        print(f"MISMATCH: {error}", flush=True)
        return 1
    seconds = time.perf_counter() - started
    print(f"all {total} backward passes agree with the reference fold ({seconds:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
