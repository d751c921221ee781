#!/usr/bin/env python
"""Fault-injection smoke run: chaos the solver, then kill a worker.

Exercises the robustness layer end to end (see docs/ROBUSTNESS.md):

1. the chaos matrix — every instrumented span site crossed with raise
   and delay actions against a lenient solver, asserting every query
   still resolves to a valid status;
2. a parallel evaluation in which a deterministic fault plan SIGKILLs
   one worker mid-unit, asserting the lease scheduler releases its
   lease, retries, and merges records identical to an un-faulted run.

Exit code 0 means every scenario held the contract.  Intended for the
non-gating CI chaos job; runs in well under a minute locally:

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

import sys
import time

from repro.bench.harness import evaluate_benchmark, prepare
from repro.bench.parallel import RunOptions, evaluate_benchmark_parallel
from repro.core import Tracer, TracerConfig
from repro.core.stats import QueryStatus
from repro.lang import parse_program
from repro.robust.faults import FaultPlan, FaultRule, fault_scope
from repro.typestate import TypestateClient, TypestateQuery, file_automaton

PROGRAM = parse_program(
    """
    x = new File
    x.open()
    observe mid
    x.close()
    observe end
    """
)

QUERIES = [
    TypestateQuery("mid", frozenset({"opened"})),
    TypestateQuery("end", frozenset({"closed"})),
]

SITES = ("choose", "forward_run", "extract", "backward")
ACTIONS = (
    ("raise", {}),
    ("raise", {"error": "explosion"}),
    ("delay", {"delay": 0.01}),
)
VALID = {QueryStatus.PROVEN, QueryStatus.IMPOSSIBLE, QueryStatus.EXHAUSTED}


def chaos_matrix() -> int:
    config = TracerConfig(k=5, max_iterations=10, strict=False)
    failures = 0
    for site in SITES:
        for action, extra in ACTIONS:
            for times in (1, None):
                label = f"{site}:{action}:{extra or ''}:times={times}"
                client = TypestateClient(
                    PROGRAM, file_automaton(), "File", frozenset({"x"})
                )
                plan = FaultPlan([FaultRule(site, action, times=times, **extra)])
                try:
                    with fault_scope(plan):
                        records = Tracer(client, config).solve_all(QUERIES)
                except Exception as exc:  # the one thing that must not happen
                    print(f"FAIL {label}: solver crashed: {exc!r}")
                    failures += 1
                    continue
                bad = [r for r in records.values() if r.status not in VALID]
                if bad or set(records) != set(QUERIES):
                    print(f"FAIL {label}: invalid resolution {records}")
                    failures += 1
                else:
                    print(f"ok   {label}")
    return failures


def kill_one_worker() -> int:
    bench = prepare("elevator")
    config = TracerConfig(k=5, max_iterations=30)
    baseline = evaluate_benchmark(bench, "typestate", config, jobs=1)
    plan = FaultPlan(
        [FaultRule("unit:elevator:typestate:0", "kill", attempt=0)]
    )
    started = time.perf_counter()
    result = evaluate_benchmark_parallel(
        bench,
        "typestate",
        config,
        jobs=2,
        options=RunOptions(max_attempts=3, fault_plan=plan),
    )
    wall = time.perf_counter() - started
    key = lambda r: (r.query_id, r.status, r.abstraction, r.iterations)
    if [key(r) for r in result.records] != [key(r) for r in baseline.records]:
        print("FAIL kill-one-worker: merged records diverged from baseline")
        return 1
    if result.failed_units:
        print(f"FAIL kill-one-worker: unexpected failed units {result.failed_units}")
        return 1
    print(
        f"ok   kill-one-worker: respawned and merged "
        f"{len(result.records)} records in {wall:.1f}s (degraded={result.degraded})"
    )
    return 0


def main() -> int:
    failures = chaos_matrix()
    failures += kill_one_worker()
    if failures:
        print(f"{failures} chaos scenario(s) failed")
        return 1
    print("all chaos scenarios held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
