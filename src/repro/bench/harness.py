"""Evaluation harness: benchmarks -> clients -> queries -> records.

Queries are generated pervasively, as in Section 6:

* type-state — one query ``(pc, h)`` per application call site ``pc``
  whose receiver may (0-CFA) point to an application allocation site
  ``h``; the property is the paper's fictitious stress automaton and a
  query is proven when the ``h``-object is still ``init`` at ``pc``;
* thread-escape — one query per instance-field access in application
  code, asking that the accessed object is thread-local.

``evaluate_benchmark`` runs grouped TRACER over all queries of one
benchmark for one client analysis and returns the per-query records
that every table and figure aggregates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.bench.suite import benchmark
from repro.core.stats import CacheCounters, QueryRecord
from repro.core.tracer import ForwardRunCache, Tracer, TracerConfig
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs
from repro.escape.client import EscapeClient, EscapeQuery
from repro.escape.domain import EscSchema
from repro.frontend.callgraph import CallGraph, build_callgraph
from repro.frontend.inline import InlineResult, inline_program
from repro.frontend.mayalias import MayAliasOracle
from repro.frontend.metrics import ProgramMetrics, compute_metrics
from repro.frontend.program import FrontProgram
from repro.typestate.automaton import stress_automaton
from repro.typestate.client import TypestateClient, TypestateQuery


@dataclass
class BenchmarkInstance:
    """One benchmark, fully lowered and ready to analyse."""

    name: str
    front: FrontProgram
    callgraph: CallGraph
    inlined: InlineResult
    metrics: ProgramMetrics
    oracle: MayAliasOracle
    #: True when the program is the standard named suite benchmark (so
    #: worker processes can re-synthesize it from the name alone).
    standard: bool = False


def prepare(name: str, front: Optional[FrontProgram] = None) -> BenchmarkInstance:
    """Synthesize (or accept) a program and run the front-end pipeline,
    memoized per suite name on the process-wide
    :class:`~repro.serve.session.AnalysisSession` (the pipeline is
    deterministic, so a resident instance is equivalent to a fresh
    one)."""
    from repro.serve.session import process_session

    return process_session().prepare(name, front)


def prepare_uncached(
    name: str, front: Optional[FrontProgram] = None
) -> BenchmarkInstance:
    """The un-memoized pipeline behind :func:`prepare`."""
    standard = front is None
    if front is None:
        front = benchmark(name)
    front.finalize()
    callgraph = build_callgraph(front)
    inlined = inline_program(front, callgraph)
    metrics = compute_metrics(name, front, callgraph, inlined)
    oracle = MayAliasOracle(callgraph, inlined.var_origin)
    return BenchmarkInstance(
        name=name,
        front=front,
        callgraph=callgraph,
        inlined=inlined,
        metrics=metrics,
        oracle=oracle,
        standard=standard,
    )


# -- client construction ------------------------------------------------------


def escape_setup(bench: BenchmarkInstance) -> Tuple[EscapeClient, List[EscapeQuery]]:
    """Build the thread-escape client and its query set."""
    inlined = bench.inlined
    schema = EscSchema(
        locals_=sorted(inlined.variables | inlined.query_vars),
        fields=sorted(inlined.fields),
    )
    client = EscapeClient(inlined.program, schema, inlined.sites)
    queries = [
        EscapeQuery(pc, qvar)
        for pc, (_cls, _meth, _base, qvar) in sorted(inlined.access_points.items())
    ]
    return client, queries


def escape_setup_interproc(
    bench: BenchmarkInstance,
) -> Tuple[EscapeClient, List[EscapeQuery]]:
    """Like :func:`escape_setup` but through the interprocedural
    tabulation engine (procedure graph, no inlining)."""
    from repro.frontend.procedures import lower_procedures

    procs = lower_procedures(bench.front, bench.callgraph)
    schema = EscSchema(
        locals_=sorted(procs.variables | procs.query_vars),
        fields=sorted(procs.fields),
    )
    client = EscapeClient(procs.graph, schema, procs.sites)
    queries = [
        EscapeQuery(pc, qvar)
        for pc, (_cls, _meth, _base, qvar) in sorted(procs.access_points.items())
    ]
    return client, queries


def typestate_setup(
    bench: BenchmarkInstance,
) -> List[Tuple[TypestateClient, List[TypestateQuery]]]:
    """Build one type-state client per queried tracked site.

    Returns ``(client, queries)`` pairs; queries on the same tracked
    site share a client (and hence TRACER's grouping optimisation), and
    the clients are one :meth:`TypestateClient.family`."""
    inlined = bench.inlined
    return _typestate_family(
        bench,
        inlined.program,
        inlined.call_points,
        inlined.variables,
        bench.oracle,
    )


def typestate_setup_interproc(
    bench: BenchmarkInstance,
) -> List[Tuple[TypestateClient, List[TypestateQuery]]]:
    """Like :func:`typestate_setup` but over the procedure graph (the
    interprocedural tabulation engine instead of inlining)."""
    from repro.frontend.procedures import lower_procedures

    procs = lower_procedures(bench.front, bench.callgraph)
    return _typestate_family(
        bench,
        procs.graph,
        procs.call_points,
        procs.variables,
        MayAliasOracle(bench.callgraph, procs.var_origin),
    )


def _typestate_family(
    bench: BenchmarkInstance,
    program,
    call_points: Dict[str, Tuple[str, str, str, str]],
    variables: FrozenSet[str],
    oracle: MayAliasOracle,
) -> List[Tuple[TypestateClient, List[TypestateQuery]]]:
    """The ``(client, queries)`` pairs of one lowered program: one query
    per call point and application site its receiver may point to, and
    one client per site, in site order."""
    methods = sorted({m for *_rest, m in call_points.values()})
    if not methods:
        return []
    app_sites = set(bench.front.app_sites())
    per_site: Dict[str, List[TypestateQuery]] = {}
    for pc, (cls, meth, base, _m) in sorted(call_points.items()):
        for site in sorted(bench.callgraph.pts_var(cls, meth, base)):
            if site in app_sites:
                per_site.setdefault(site, []).append(
                    TypestateQuery(pc, frozenset({"init"}))
                )
    sites = sorted(per_site)
    clients = TypestateClient.family(
        program,
        stress_automaton(methods),
        variables,
        [(site, oracle.for_site(site)) for site in sites],
        event_labels=frozenset(call_points),
    )
    return [(client, per_site[site]) for client, site in zip(clients, sites)]


# -- evaluation ---------------------------------------------------------------


@dataclass
class EvalResult:
    """All records of one benchmark under one client analysis.

    Cache counters come from one place: the evaluation's
    :class:`~repro.obs.metrics.MetricsRegistry` snapshot taken when
    the run finishes (``metrics``).  The named fields below are
    convenience views derived from that snapshot at construction (see
    :func:`counters_from_metrics`) — they are never accumulated
    separately, so they cannot drift from the registry's totals.
    """

    benchmark: str
    analysis: str
    records: List[QueryRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Forward-run cache counters, summed over the evaluation's TRACER
    #: drivers (engine-level: one hit = one forward fixpoint skipped).
    forward_hits: int = 0
    forward_misses: int = 0
    #: wp-memo counters, summed over the clients' backward
    #: meta-analyses (one miss = one wp derived from the case table).
    wp_cache: CacheCounters = CacheCounters()
    #: Compiled-dispatch counters, summed over the clients' guarded
    #: semantics (one miss = one command's table compiled + checked).
    dispatch_cache: CacheCounters = CacheCounters()
    #: The full registry snapshot (name -> counters) this run's
    #: reported counters were read from.
    metrics: Dict[str, CacheCounters] = field(default_factory=dict)
    #: True when the run survived something it should not have needed
    #: to: a retried/respawned work unit, a failed unit, or a resumed
    #: checkpoint.  Records are still deterministic — degradation is
    #: about *how* they were obtained.
    degraded: bool = False
    #: Units that exhausted their retry budget, as
    #: ``"benchmark:analysis:index: error"`` strings; their queries are
    #: missing from ``records`` rather than guessed at.
    failed_units: Tuple[str, ...] = ()
    #: Verdict certificates (one dict per resolved query, in unit
    #: order), collected when the run was asked to certify (see
    #: :mod:`repro.robust.certify`); empty otherwise.
    certificates: List[dict] = field(default_factory=list)

    @property
    def query_count(self) -> int:
        return len(self.records)

    @property
    def forward_hit_rate(self) -> float:
        total = self.forward_hits + self.forward_misses
        return self.forward_hits / total if total else 0.0


def counters_from_metrics(
    metrics: Dict[str, CacheCounters],
) -> Tuple[CacheCounters, CacheCounters, CacheCounters]:
    """Fold a registry snapshot into the ``(forward-run, wp-memo,
    compiled-dispatch)`` totals :class:`EvalResult` reports."""

    def total(prefix: str) -> CacheCounters:
        out = CacheCounters()
        dotted = prefix + "."
        for name, counters in metrics.items():
            if name == prefix or name.startswith(dotted):
                out += counters
        return out

    return total("forward_run"), total("wp_memo"), total("dispatch")


#: Default per-query effort budget for the evaluation, playing the role
#: of the paper's 1000-minute timeout: queries still unresolved after
#: this many TRACER iterations are reported as unresolved (Figure 12).
#: The evaluation runs lenient (``strict=False``): one misbehaving
#: query degrades to EXHAUSTED instead of aborting the whole table.
DEFAULT_CONFIG = TracerConfig(k=5, max_iterations=30, strict=False)


#: The client-setup function per analysis name.  Single-client analyses
#: map to a one-element list so evaluation (and the parallel executor's
#: work units) can treat every analysis uniformly.
ANALYSES = ("typestate", "escape", "typestate-interproc", "escape-interproc")


def analysis_setups(bench: BenchmarkInstance, analysis: str):
    """All ``(client, queries)`` pairs of one analysis on one benchmark.

    Each pair is an independent TRACER workload (typestate clients
    track different sites; the other analyses use a single client), so
    the pairs are exactly the units the parallel executor fans out.
    """
    if analysis == "escape":
        return [escape_setup(bench)]
    if analysis == "escape-interproc":
        return [escape_setup_interproc(bench)]
    if analysis == "typestate":
        return typestate_setup(bench)
    if analysis == "typestate-interproc":
        return typestate_setup_interproc(bench)
    raise ValueError(f"unknown analysis {analysis!r}")


def client_cache_counters(client) -> Tuple[CacheCounters, CacheCounters]:
    """The ``(wp-memo, compiled-dispatch)`` counters of one client.

    Reads the counters the backward meta-analysis and the guarded
    semantics accumulate; absent attributes (a client not built on the
    IR) count as zero.

    Legacy accessor: the evaluation no longer threads counters through
    by hand — caches register with the
    :class:`~repro.obs.metrics.MetricsRegistry` and the harness reads
    one snapshot per run.  Kept for ad-hoc inspection of a single
    client."""
    meta = getattr(client, "meta", None)
    wp = CacheCounters(
        hits=getattr(meta, "wp_hits", 0),
        misses=getattr(meta, "wp_misses", 0),
    )
    semantics = getattr(getattr(client, "analysis", None), "semantics", None)
    dispatch = CacheCounters(
        hits=getattr(semantics, "dispatch_hits", 0),
        misses=getattr(semantics, "dispatch_misses", 0),
    )
    return wp, dispatch


def stamp_certificates(
    store,
    bench_name: str,
    analysis: str,
    index: int,
    queries: Sequence[object],
) -> List[dict]:
    """Attach the bench rebuild stamp to one unit's certificates, so
    ``repro certify`` can reconstruct the emitting client from
    ``(benchmark, analysis, index)`` alone."""
    position = {str(query): i for i, query in enumerate(queries)}
    for cert in store.certificates:
        cert["client"] = {
            "kind": "bench",
            "benchmark": bench_name,
            "analysis": analysis,
            "index": index,
            "query_index": position.get(cert["query"]),
        }
    return store.certificates


def evaluate_benchmark(
    bench: BenchmarkInstance,
    analysis: str,
    config: TracerConfig = DEFAULT_CONFIG,
    jobs: int = 1,
    options: "Optional[object]" = None,
) -> EvalResult:
    """Run grouped TRACER over every query of one client analysis.

    With ``jobs > 1`` the independent client workloads are fanned out
    across worker processes (see :mod:`repro.bench.parallel`); results
    are merged deterministically, so statuses, abstractions, and
    iteration counts are identical to a serial run.  ``options`` (a
    :class:`repro.bench.parallel.RunOptions`) configures the parallel
    path's retry, timeout, checkpoint, and fault-injection behaviour.
    """
    if jobs > 1:
        from repro.bench.parallel import evaluate_benchmark_parallel

        return evaluate_benchmark_parallel(
            bench, analysis, config, jobs, options=options
        )
    certify = bool(getattr(options, "certify", False))
    started = time.perf_counter()
    records: List[QueryRecord] = []
    certificates: List[dict] = []
    with obs_metrics.scoped_registry() as registry:
        cache = (
            ForwardRunCache(config.forward_cache_size)
            if config.forward_cache_size
            else None
        )
        # Keep every client alive until the snapshot below: the
        # registry holds weak references, so letting a setup be
        # collected mid-loop would silently drop its cache counters
        # from the totals.
        setups = analysis_setups(bench, analysis)
        for index, (client, queries) in enumerate(setups):
            if not queries:
                continue
            store = None
            if certify:
                from repro.robust.certify import CertificateStore

                store = CertificateStore()
            with obs.span(
                "workload",
                benchmark=bench.name,
                analysis=analysis,
                unit=index,
                queries=len(queries),
            ):
                solved = Tracer(
                    client, config, forward_cache=cache, certificates=store
                ).solve_all(queries)
            records.extend(solved[q] for q in queries)
            if store is not None:
                certificates.extend(
                    stamp_certificates(
                        store, bench.name, analysis, index, queries
                    )
                )
        snapshot = registry.snapshot()
    forward, wp_cache, dispatch_cache = counters_from_metrics(snapshot)
    if obs.active():
        for name, counters in snapshot.items():
            obs.metric(
                name,
                counters.hits,
                counters.misses,
                benchmark=bench.name,
                analysis=analysis,
            )
    return EvalResult(
        benchmark=bench.name,
        analysis=analysis,
        records=records,
        wall_seconds=time.perf_counter() - started,
        forward_hits=forward.hits,
        forward_misses=forward.misses,
        wp_cache=wp_cache,
        dispatch_cache=dispatch_cache,
        metrics=snapshot,
        certificates=certificates,
    )
