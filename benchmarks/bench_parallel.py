"""Parallel harness benchmark — speedup and determinism.

Runs the 4 smallest benchmarks x both client analyses once serially
and once on 4 lease-scheduler worker processes, checks that every
record (status, abstraction, iterations, forward runs) is identical,
renders Figure 12 and Table 2 from time-normalised records to prove
byte-identical output, and reports the wall-clock ratio.  The speedup assertion only
applies on multi-core runners — a single-core machine still checks
determinism and records the (expected ~1x or worse) ratio.
"""

import dataclasses
import os
import time

from repro.bench.figures import render_figure12
from repro.bench.harness import prepare
from repro.bench.parallel import evaluate_many
from repro.bench.tables import render_table2
from repro.core.stats import summarize_records
from repro.core.tracer import TracerConfig

SMALLEST = ("tsp", "elevator", "hedc", "weblech")
CONFIG = TracerConfig(k=5, max_iterations=30)
JOBS = 4


def _record_key(record):
    return (
        record.query_id,
        record.status,
        record.abstraction,
        record.abstraction_cost,
        record.iterations,
        record.forward_runs,
        record.forward_cache_hits,
        record.max_disjuncts,
    )


def _rendered(results):
    """Figure 12 + Table 2 from time-normalised records."""
    aggregates = {
        name: tuple(
            summarize_records(
                [
                    dataclasses.replace(r, time_seconds=0.0)
                    for r in results[name][analysis].records
                ]
            )
            for analysis in ("typestate", "escape")
        )
        for name in results
    }
    return render_figure12(aggregates) + "\n\n" + render_table2(aggregates)


def test_parallel_speedup_and_equality(save_output):
    instances = {name: prepare(name) for name in SMALLEST}
    analyses = ("typestate", "escape")

    started = time.perf_counter()
    serial = evaluate_many(instances, analyses, CONFIG, jobs=1)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = evaluate_many(instances, analyses, CONFIG, jobs=JOBS)
    parallel_seconds = time.perf_counter() - started

    # Determinism: every record identical up to wall-clock time.
    for name in SMALLEST:
        for analysis in analyses:
            assert [
                _record_key(r) for r in serial[name][analysis].records
            ] == [_record_key(r) for r in parallel[name][analysis].records], (
                name,
                analysis,
            )

    # Rendered output: byte-identical once times are normalised.
    assert _rendered(serial) == _rendered(parallel)

    cpus = os.cpu_count() or 1
    ratio = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    lines = [
        "Parallel evaluation harness (4 smallest benchmarks, both analyses)",
        f"  cpus={cpus} jobs={JOBS}",
        f"  serial:   {serial_seconds:.2f}s",
        f"  parallel: {parallel_seconds:.2f}s",
        f"  speedup:  {ratio:.2f}x",
        "  records: identical; rendered Figure 12/Table 2: identical",
    ]
    save_output("parallel.txt", "\n".join(lines))

    if cpus >= 4:
        # On a genuinely multi-core runner the fan-out must pay for its
        # process overhead on this workload.
        assert ratio > 1.1, f"expected speedup, got {ratio:.2f}x"
