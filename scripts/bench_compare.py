"""Dump deterministic TRACER results for before/after comparison.

Runs the smoke-sized benchmark suite for the typestate and escape
clients (forward cache on and off) plus a battery of seeded random
programs for all three clients (typestate, escape, provenance), and
writes per-query ``(status, abstraction, iterations)`` triples to a
JSON file.  Diffing two dumps verifies that a refactor of the transfer
semantics is behaviour-preserving::

    PYTHONPATH=src python scripts/bench_compare.py /tmp/before.json
    ... refactor ...
    PYTHONPATH=src python scripts/bench_compare.py /tmp/after.json
    diff /tmp/before.json /tmp/after.json

A second mode compares forward *engines* instead of revisions: with
``--engines interpreted,compiled`` the same workloads (all three
clients per benchmark, certificates on) are evaluated once per engine
within this process, and every per-query verdict, iteration count,
annotation digest, and certificate must be bit-identical across
engines — the cross-engine equivalence gate of the compiled bitset
kernel::

    PYTHONPATH=src python scripts/bench_compare.py \\
        --engines interpreted,compiled --benchmarks smoke

``--benchmarks all`` extends the sweep to the full seven-benchmark
paper suite (the CI job runs it).  A ``compiled`` workload that ran
no kernel step, or an ``interpreted`` one that ran some, fails the
check: a client without a codec stays interpreted silently, and the
comparison would then pass without comparing anything.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repro.bench.harness import prepare, evaluate_benchmark
from repro.core.tracer import Tracer, TracerConfig
from repro.escape.client import EscapeClient, EscapeQuery
from repro.escape.domain import EscSchema
from repro.provenance.client import ProvenanceClient, ProvenanceQuery
from repro.provenance.domain import PtSchema
from repro.typestate.automaton import file_automaton
from repro.typestate.client import TypestateClient, TypestateQuery
from tests.randprog import (
    FIELDS,
    SITES,
    VARS,
    random_escape_program,
    random_typestate_program,
)

from repro.bench.suite import BENCHMARK_NAMES

BENCHMARKS = ("tsp", "elevator", "hedc")
ANALYSES = ("typestate", "escape")


def _record(r):
    return {
        "query": r.query_id,
        "status": r.status.value,
        "abstraction": sorted(r.abstraction) if r.abstraction is not None else None,
        "iterations": r.iterations,
        "max_disjuncts": r.max_disjuncts,
    }


def suite_results(cache_size):
    config = TracerConfig(k=5, max_iterations=30, forward_cache_size=cache_size)
    out = {}
    for name in BENCHMARKS:
        bench = prepare(name)
        for analysis in ANALYSES:
            result = evaluate_benchmark(bench, analysis, config)
            out[f"{name}/{analysis}"] = [_record(r) for r in result.records]
    return out


def random_results(cache_size):
    config = TracerConfig(k=5, max_iterations=40, forward_cache_size=cache_size)
    out = {}
    for seed in range(40):
        rng = random.Random(seed)
        program = random_typestate_program(rng, length=7)
        client = TypestateClient(
            program, file_automaton(), "h1", frozenset(VARS)
        )
        query = TypestateQuery("q", frozenset({"closed", "opened"}))
        record = Tracer(client, config).solve(query)
        out[f"typestate/seed{seed}"] = [_record(record)]
    for seed in range(40):
        rng = random.Random(seed + 1000)
        program = random_escape_program(rng, length=7)
        schema = EscSchema(VARS, FIELDS)
        client = EscapeClient(program, schema, frozenset(SITES))
        records = [
            _record(Tracer(client, config).solve(EscapeQuery("q", v)))
            for v in VARS
        ]
        out[f"escape/seed{seed}"] = records
    for seed in range(40):
        rng = random.Random(seed + 2000)
        program = random_escape_program(rng, length=7)
        schema = PtSchema(VARS)
        client = ProvenanceClient(program, schema, frozenset(SITES))
        records = [
            _record(
                Tracer(client, config).solve(
                    ProvenanceQuery("q", v, frozenset({"h1"}))
                )
            )
            for v in VARS
        ]
        out[f"provenance/seed{seed}"] = records
    return out


def provenance_setup(bench):
    """A deterministic provenance workload for one suite benchmark:
    first observe labels x first variables, allowed = half the sites."""
    from repro.lang.universe import collect_universe

    universe = collect_universe(bench.inlined.program)
    client = ProvenanceClient(
        bench.inlined.program,
        PtSchema(universe.variables),
        universe.sites,
    )
    labels = sorted(client.cfg.observe_edges())[:2]
    variables = sorted(universe.variables)[:2]
    sites = sorted(universe.sites)
    allowed = frozenset(sites[: max(1, len(sites) // 2)])
    queries = [
        ProvenanceQuery(label, var, allowed)
        for label in labels
        for var in variables
    ]
    return client, queries


def kernel_steps(metrics):
    """Compiled-kernel steps a run looked up or lowered: the hits plus
    misses of its ``kernel.<client>`` counters."""
    return sum(
        counters.hits + counters.misses
        for name, counters in metrics.items()
        if name.startswith("kernel.")
    )


def engine_dump(engine, benchmarks):
    """Verdicts, digests, and certificates of every workload under one
    forward engine — the unit of the cross-engine identity check — and
    the kernel steps each workload ran (a client without a codec
    silently stays interpreted, so the check must see them)."""
    from repro.bench.parallel import RunOptions
    from repro.robust.certify import CertificateStore

    config = TracerConfig(k=5, max_iterations=30, engine=engine)
    out = {}
    steps = {}
    for name in benchmarks:
        bench = prepare(name)
        for analysis in ANALYSES:
            result = evaluate_benchmark(
                bench, analysis, config, options=RunOptions(certify=True)
            )
            out[f"{name}/{analysis}"] = {
                "records": [_record(r) for r in result.records],
                "certificates": result.certificates,
            }
            steps[f"{name}/{analysis}"] = kernel_steps(result.metrics)
        client, queries = provenance_setup(bench)
        store = CertificateStore()
        solved = Tracer(client, config, certificates=store).solve_all(queries)
        out[f"{name}/provenance"] = {
            "records": [_record(solved[q]) for q in queries],
            "certificates": store.certificates,
        }
        kernel = getattr(client, "_kernel_engine", None) or None
        steps[f"{name}/provenance"] = (
            kernel.hits + kernel.misses if kernel is not None else 0
        )
    return out, steps


def vacuous_workloads(engine, steps):
    """Workloads whose kernel use contradicts ``engine``: a compiled
    run that ran no kernel step compared nothing, and an interpreted
    one that ran some was not the oracle."""
    if engine == "compiled":
        return sorted(key for key, count in steps.items() if not count)
    return sorted(key for key, count in steps.items() if count)


def _first_divergence(path, a, b):
    """Drill down to one differing leaf for a readable mismatch report."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                return _first_divergence(f"{path}.{key}", a.get(key), b.get(key))
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_divergence(f"{path}[{i}]", x, y)
        if len(a) != len(b):
            return f"{path}: length {len(a)} vs {len(b)}", None, None
    return path, a, b


def compare_engines(engines, benchmarks):
    """Evaluate every workload once per engine and require the results
    to be bit-identical.  Returns the number of mismatching workloads."""
    dumps = {}
    mismatches = 0
    for engine in engines:
        dump, steps = engine_dump(engine, benchmarks)
        # Round-trip through JSON so the comparison sees exactly what a
        # serialized dump would contain (tuples become lists, etc.).
        dumps[engine] = json.loads(json.dumps(dump, sort_keys=True))
        for key in vacuous_workloads(engine, steps):
            mismatches += 1
            print(
                f"VACUOUS {engine} at {key}: "
                f"{steps[key]} compiled-kernel steps"
            )
    reference = engines[0]
    for other in engines[1:]:
        for key in sorted(dumps[reference]):
            if dumps[reference][key] == dumps[other][key]:
                continue
            mismatches += 1
            path, a, b = _first_divergence(
                key, dumps[reference][key], dumps[other][key]
            )
            print(f"MISMATCH {reference} vs {other} at {path}:")
            print(f"  {reference}: {a!r}")
            print(f"  {other}: {b!r}")
    workloads = len(dumps[reference])
    queries = sum(len(v["records"]) for v in dumps[reference].values())
    if mismatches == 0:
        print(
            f"engines {', '.join(engines)} bit-identical on "
            f"{workloads} workloads ({queries} queries, "
            f"verdicts + digests + certificates)"
        )
    return mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out", nargs="?", default="bench_compare.json",
        help="output JSON path (dump mode)",
    )
    parser.add_argument(
        "--engines",
        help="comma-separated forward engines to cross-check "
        "(e.g. interpreted,compiled); switches to identity-compare mode",
    )
    parser.add_argument(
        "--benchmarks",
        choices=("smoke", "all"),
        default="smoke",
        help="suite scope for --engines mode (default smoke)",
    )
    args = parser.parse_args(argv)

    if args.engines:
        engines = [e.strip() for e in args.engines.split(",") if e.strip()]
        if len(engines) < 2:
            parser.error("--engines needs at least two engines")
        names = BENCHMARKS if args.benchmarks == "smoke" else BENCHMARK_NAMES
        mismatches = compare_engines(engines, names)
        return 1 if mismatches else 0

    dump = {
        "suite_cache_on": suite_results(64),
        "suite_cache_off": suite_results(None),
        "random_cache_on": random_results(64),
        "random_cache_off": random_results(None),
    }
    with open(args.out, "w") as handle:
        json.dump(dump, handle, indent=1, sort_keys=True)
        handle.write("\n")
    total = sum(len(v) for section in dump.values() for v in section.values())
    print(f"wrote {args.out}: {total} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
