"""One-call reproduction of the paper's whole evaluation section.

Used by both ``examples/full_evaluation.py`` and the ``repro eval``
CLI command: prepares the requested benchmarks, resolves every query
of both client analyses with grouped TRACER, and renders Tables 1-4
and Figures 12-14.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.bench.figures import render_figure12, render_figure13, render_figure14
from repro.bench.harness import BenchmarkInstance, evaluate_benchmark, prepare
from repro.bench.suite import BENCHMARK_NAMES
from repro.bench.tables import (
    render_cache_stats,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)
from repro.core.stats import size_distribution, summarize_records
from repro.core.tracer import TracerConfig

SMALLEST: Tuple[str, ...] = ("tsp", "elevator", "hedc", "weblech")
LARGEST: Tuple[str, ...] = ("antlr", "avrora", "lusearch")


def full_report(
    names: Sequence[str] = BENCHMARK_NAMES,
    k: Optional[int] = 5,
    max_iterations: int = 30,
    emit: Callable[[str], None] = print,
    k_sweep: Sequence[int] = (1, 5, 10),
    jobs: int = 1,
    options: "Optional[object]" = None,
    config: Optional[TracerConfig] = None,
) -> Dict[str, Dict[str, object]]:
    """Run the evaluation on ``names`` and emit the report.

    With ``jobs > 1`` every independent workload of the evaluation (per
    benchmark, per analysis, per client) runs on the lease scheduler's
    worker processes; the rendered tables and figures are identical to
    a serial run because results merge deterministically (only
    wall-clock timings differ).  ``options`` (a
    :class:`repro.bench.parallel.RunOptions`) configures the
    scheduler's retries, timeout, lease log/resume, and fault
    injection, and a run that keeps a lease log goes through the
    scheduler with one worker; ``config`` overrides the solver
    configuration wholesale (``k``/``max_iterations`` are ignored when
    it is given).

    Returns the raw per-benchmark evaluation results keyed by analysis
    so callers can post-process them.
    """
    if config is None:
        config = TracerConfig(k=k, max_iterations=max_iterations)
    emit(f"Preparing {len(names)} benchmarks ...")
    instances: Dict[str, BenchmarkInstance] = {
        name: prepare(name) for name in names
    }
    emit(render_table1([instances[name].metrics for name in names]))
    emit("")

    results: Dict[str, Dict[str, object]] = {}
    aggregates = {}
    if jobs > 1 or (options is not None and options.scheduled(jobs)):
        from repro.bench.parallel import evaluate_many

        started = time.perf_counter()
        results = evaluate_many(
            instances, ("typestate", "escape"), config, jobs=jobs,
            options=options,
        )
        queries = sum(
            r.query_count for per in results.values() for r in per.values()
        )
        emit(
            f"  evaluated {queries} queries across {len(names)} benchmarks "
            f"in {time.perf_counter() - started:.1f}s (jobs={jobs})"
        )
        failed = [
            unit
            for per in results.values()
            for result in per.values()
            for unit in result.failed_units
        ]
        if failed:
            emit(
                f"  WARNING: {len(failed)} work unit(s) failed permanently "
                f"and are missing from the tables: {'; '.join(failed)}"
            )
        for name in names:
            aggregates[name] = (
                summarize_records(results[name]["typestate"].records),
                summarize_records(results[name]["escape"].records),
            )
    else:
        for name in names:
            started = time.perf_counter()
            results[name] = {
                analysis: evaluate_benchmark(
                    instances[name], analysis, config, options=options
                )
                for analysis in ("typestate", "escape")
            }
            aggregates[name] = (
                summarize_records(results[name]["typestate"].records),
                summarize_records(results[name]["escape"].records),
            )
            queries = sum(r.query_count for r in results[name].values())
            emit(
                f"  {name}: evaluated {queries} queries in "
                f"{time.perf_counter() - started:.1f}s"
            )
    emit("")
    emit(render_figure12(aggregates))
    emit("")
    emit("Table 2: scalability measurements")
    emit(render_table2(aggregates))
    emit("")
    emit("Table 3: cheapest abstraction sizes for proven queries")
    emit(render_table3(aggregates))
    emit("")
    emit("Table 4: cheapest abstraction reuse for proven queries")
    emit(render_table4(aggregates))
    emit("")
    emit("Forward-run cache effectiveness")
    emit(render_cache_stats(results))
    emit("")

    sweep_names = [n for n in SMALLEST if n in instances]
    if sweep_names and k_sweep:
        emit("Figure 13 (k ablation on the smallest benchmarks) ...")
        timings = {}
        for name in sweep_names:
            timings[name] = {}
            for k_value in k_sweep:
                started = time.perf_counter()
                evaluate_benchmark(
                    instances[name],
                    "escape",
                    TracerConfig(k=k_value, max_iterations=max_iterations),
                )
                timings[name][k_value] = time.perf_counter() - started
        emit(render_figure13(timings))
        emit("")

    histograms = {
        name: size_distribution(results[name]["escape"].records)
        for name in LARGEST
        if name in results
    }
    if histograms:
        emit(render_figure14(histograms))
    return results
