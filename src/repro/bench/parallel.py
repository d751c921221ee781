"""Process-parallel evaluation of independent TRACER workloads.

The evaluation decomposes naturally: every ``(benchmark, analysis,
client)`` triple is an independent TRACER run (typestate clients track
different allocation sites and share nothing; benchmarks are disjoint
programs), so the harness can fan those units across worker processes
and merge the results deterministically — unit results are
concatenated in the exact order the serial harness would have produced
them, so statuses, abstractions, and iteration counts are
byte-for-byte identical to ``jobs=1`` (only wall-clock fields differ).

Work units are described by *name + unit index*, not by pickled client
objects: each worker process synthesizes the benchmark itself (memoised
per process, and inherited for free on fork-based platforms via
:func:`_seed_instance`), rebuilds the client list, and runs its
assigned unit.  Custom (non-suite) programs ride along as a pickled
:class:`~repro.frontend.program.FrontProgram`.

Scheduling is lease-based work stealing
(:mod:`repro.robust.scheduler`): workers claim *tasks* — whole units,
or sub-unit query groups when :attr:`RunOptions.group_size` is set —
off a durable, flock-coordinated lease log, heartbeat while solving,
and durably complete with first-completion-wins dedup; a SIGKILLed,
hung or timed-out worker's leases expire (or are force-released by the
parent supervisor) and are reclaimed by siblings, and the clause bus
(:mod:`repro.robust.clausebus`) lets a reclaiming worker replay the
dead worker's already-published CEGAR rounds — re-validated clause by
clause — instead of re-running their forward fixpoints.  Units that
keep failing land in
:attr:`~repro.bench.harness.EvalResult.failed_units` instead of
raising.  Because units are pure functions of ``(benchmark, analysis,
index, config)``, a retried unit reproduces its records bit-for-bit,
so the merge stays deterministic across crashes.

The lease log is also the run's checkpoint
(:attr:`RunOptions.lease_path`, the CLI's ``--checkpoint FILE``): each
durable completion holds its group's records, metrics, events and
certificates, so a resumed run (:attr:`RunOptions.resume`) takes every
group that completed before a crash from the log and solves only the
rest, even inside a unit that never finished.

Entry points:

* :func:`evaluate_benchmark_parallel` — one benchmark, one analysis
  (what ``evaluate_benchmark(..., jobs=N)`` delegates to);
* :func:`evaluate_many` — the full cross product used by
  ``full_report(jobs=N)`` and ``repro eval --jobs N``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    BenchmarkInstance,
    DEFAULT_CONFIG,
    EvalResult,
    analysis_setups,
    counters_from_metrics,
)
from repro.core.stats import CacheCounters, QueryRecord
from repro.core.tracer import ForwardRunCache, Tracer, TracerConfig
from repro.frontend.program import FrontProgram
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs
from repro.obs.events import merge_streams
from repro.obs.sinks import MemorySink
from repro.robust import faults as robust_faults
from repro.robust.clausebus import ClauseBus, ClauseFeed, ClauseFeedMismatch
from repro.robust.faults import FaultPlan
from repro.robust.leases import TaskKey, payload_fingerprint
from repro.robust.scheduler import SchedulerResult, run_leased

#: The instance memos behind :func:`_seed_instance` / :func:`_instance`
#: now live on the process-wide :class:`~repro.serve.session.AnalysisSession`
#: (forked workers inherit the parent's session, exactly as they
#: inherited the former module-level dicts).


UnitKey = Tuple[str, str, int]  # (benchmark, analysis, unit index)


@dataclass(frozen=True)
class RunOptions:
    """Robustness knobs of one parallel evaluation."""

    #: Claims per task before it is recorded as failed.
    max_attempts: int = 3
    #: Wall-clock allowance per task attempt (``None`` = unbounded):
    #: the parent kills the worker whose claim is older, and the task
    #: is retried.
    unit_timeout: Optional[float] = None
    #: Keep the lease log at :attr:`lease_path` and run only the tasks
    #: it does not hold a completion for.
    resume: bool = False
    #: Deterministic fault plan shipped to every worker (tests, chaos).
    fault_plan: Optional[FaultPlan] = None
    #: Emit per-query verdict certificates.
    certify: bool = False
    #: Split each unit's queries into groups of at most this many for
    #: sub-unit scheduling (``0`` = whole units).  Grouped runs
    #: decompose the Section 6 query groups differently, so records
    #: match a serial run *of the same decomposition*, not the
    #: whole-unit serial harness.
    group_size: int = 0
    #: Worker heartbeat period (seconds).
    heartbeat_interval: float = 0.25
    #: A lease whose worker has not heartbeat for this long is expired
    #: and claimable by siblings.
    lease_ttl: float = 5.0
    #: The lease log, which is also the run's checkpoint (the CLI's
    #: ``--checkpoint FILE``; the clause bus sits at ``lease_path +
    #: ".bus"``).  ``None`` = a throwaway temp file.
    lease_path: Optional[str] = None
    #: Share learned rounds across workers through the clause bus (see
    #: :mod:`repro.robust.clausebus`).
    clause_bus: bool = True
    #: Extra fault-rule specs per worker index (chaos).
    worker_faults: Optional[Tuple[Optional[Tuple[str, ...]], ...]] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def scheduled(self, jobs: int) -> bool:
        """Whether a run on ``jobs`` workers goes through the lease
        scheduler.  One worker does too when the run groups queries,
        keeps a lease log or bounds a task's time, which the serial
        harness would drop."""
        return (
            jobs > 1
            or self.group_size > 0
            or self.lease_path is not None
            or self.resume
            or self.unit_timeout is not None
        )


@dataclass(frozen=True)
class WorkUnit:
    """One independent TRACER workload: a single ``(client, queries)``
    pair of one analysis on one benchmark."""

    benchmark: str
    analysis: str
    index: int  # position in analysis_setups(bench, analysis)
    token: int  # parent-side instance token (for the fork-time memo)
    front: Optional[FrontProgram] = None  # only for non-suite programs

    @property
    def key(self) -> UnitKey:
        """Run-independent identity: the seed token deliberately does
        not participate."""
        return (self.benchmark, self.analysis, self.index)


def _seed_instance(bench: BenchmarkInstance) -> int:
    """Register ``bench`` in the process-wide session and return its
    token.  Called in the parent *before* the workers fork, so workers
    start with the instance already in memory.  Fork-based platforms
    inherit the parent's seeded entries; spawn-based platforms fall
    back to preparing from the unit description."""
    from repro.serve.session import process_session

    return process_session().seed(bench)


def _instance(unit: WorkUnit) -> BenchmarkInstance:
    from repro.serve.session import process_session

    return process_session().instance(unit.benchmark, unit.token, unit.front)


#: ``(records, registry snapshot, trace events, certificates)`` of one
#: work unit.  The snapshot is the unit's scoped metrics registry read
#: once at the end; the event list is empty unless the parent asked for
#: tracing, and the certificate list unless it asked to certify.
UnitResult = Tuple[
    List[QueryRecord], Dict[str, CacheCounters], List[dict], List[dict]
]


class _Family:
    """The ``(client, queries)`` setups of one ``(benchmark, analysis)``
    pair and the registry their caches report to.

    A lease worker keeps one resident across its tasks and reuses it
    while consecutive tasks name the same pair, so sibling tasks share
    compiled tables and wp memos as the serial eval's units do; a task
    of another pair replaces it, so a worker holds at most one family.
    The registry lives as long as the family, so each task can count
    its own traffic on every family cache, including caches an earlier
    task registered lazily."""

    def __init__(self) -> None:
        self.pair: Optional[Tuple[str, int, str]] = None
        self.setups: list = []
        self.registry = obs_metrics.MetricsRegistry()

    def enter(
        self, bench: BenchmarkInstance, unit: WorkUnit
    ) -> Tuple[list, obs_metrics.Readings]:
        """``unit``'s setups, and the readings its task's traffic counts
        from (none when the family is built for this task)."""
        pair = (unit.benchmark, unit.token, unit.analysis)
        if pair == self.pair:
            return self.setups, self.registry.readings()
        self.pair, self.setups = None, []  # release the previous family
        self.registry = obs_metrics.MetricsRegistry()
        with obs_metrics.scoped_registry(self.registry):
            self.setups = analysis_setups(bench, unit.analysis)
        self.pair = pair
        return self.setups, {}


def _run_group(
    unit: WorkUnit,
    group: Optional[Tuple[int, int, int]],
    config: TracerConfig,
    family: _Family,
    collect_events: bool,
    certify: bool,
    clause_feed=None,
) -> UnitResult:
    """Worker entry point: run one unit — or, when ``group`` is
    ``(lo, hi, group_index)``, the query slice ``[lo:hi]`` of it —
    under its family's metrics registry (and, when requested, an
    in-memory trace sink), returning its records in query order plus
    the snapshot of this call's cache traffic, the captured event
    stream, and the stamped verdict certificates.  ``family`` is the
    worker's resident client family and ``clause_feed`` plugs the solve
    into the cross-worker clause bus."""
    bench = _instance(unit)
    # Fault sites for the chaos/retry machinery: a generic one and one
    # addressing this exact unit.  A "corrupt" rule damages the unit's
    # output, which the integrity check below turns into a retryable
    # failure instead of a silent bad merge.
    corrupt = robust_faults.inject("unit")
    corrupt = (
        robust_faults.inject(
            f"unit:{unit.benchmark}:{unit.analysis}:{unit.index}"
        )
        or corrupt
    )
    sink = MemorySink() if collect_events else None
    setups, since = family.enter(bench, unit)
    with obs_metrics.scoped_registry(family.registry) as registry:
        client, queries = setups[unit.index]
        group_queries = queries if group is None else queries[group[0]:group[1]]
        if not group_queries:
            return [], {}, [], []
        cache = (
            ForwardRunCache(config.forward_cache_size)
            if config.forward_cache_size
            else None
        )
        store = None
        if certify:
            from repro.robust.certify import CertificateStore

            store = CertificateStore()

        def run():
            attrs = dict(
                benchmark=unit.benchmark,
                analysis=unit.analysis,
                unit=unit.index,
                queries=len(group_queries),
            )
            if group is not None:
                attrs["group"] = group[2]
            with obs.span("workload", **attrs):
                return Tracer(
                    client,
                    config,
                    forward_cache=cache,
                    certificates=store,
                    clause_feed=clause_feed,
                ).solve_all(group_queries)

        if sink is not None:
            # The unit's stable identity doubles as the schema v2
            # trace id, so merged worker streams stay correlated per
            # unit (and `repro trace profile --by-trace` can attribute
            # time to units).
            trace_id = f"unit:{unit.benchmark}:{unit.analysis}:{unit.index}"
            if group is not None:
                trace_id += f":g{group[2]}"
            with obs.tracing(sink, trace_id=trace_id):
                solved = run()
        else:
            solved = run()
        snapshot = registry.snapshot(since)
    records = [solved[q] for q in group_queries]
    if corrupt:
        records = records[:-1]
    if len(records) != len(group_queries):
        raise RuntimeError(
            f"unit {unit.benchmark}:{unit.analysis}:{unit.index} produced "
            f"{len(records)} records for {len(group_queries)} queries"
        )
    certificates: List[dict] = []
    if store is not None:
        from repro.bench.harness import stamp_certificates

        # Stamp against the unit's *full* query list so ``query_index``
        # is the position in the unit regardless of group decomposition.
        certificates = stamp_certificates(
            store, unit.benchmark, unit.analysis, unit.index, queries
        )
    return (
        records,
        snapshot,
        sink.events if sink is not None else [],
        certificates,
    )


#: Counters of the most recent lease-scheduled run in this process
#: (claims, steals, expiries, respawns, ...) — read by the bench suite
#: and surfaced as scheduler gauges.
_LAST_SCHEDULER_STATS: Dict[str, int] = {}


def last_scheduler_stats() -> Dict[str, int]:
    """Stats of the most recent lease-scheduled evaluation (empty if
    none ran in this process)."""
    return dict(_LAST_SCHEDULER_STATS)


def _group_payload(
    task: TaskKey, query_ids: Sequence[str], result: UnitResult
) -> Tuple[dict, str]:
    """Serialise one group's :data:`UnitResult` into the JSON payload
    stored in the lease log, plus its semantic fingerprint (records
    with wall-clock zeroed + certificates; metrics and trace events are
    legitimately attempt-dependent and excluded)."""
    from repro.bench.export import record_to_dict

    records, metrics, events, certificates = result
    payload = {
        "task": list(task),
        "queries": list(query_ids),
        "records": [record_to_dict(record) for record in records],
        "metrics": {
            name: {"hits": counters.hits, "misses": counters.misses}
            for name, counters in sorted(metrics.items())
        },
        "events": list(events),
        "certificates": list(certificates),
    }
    normalized = dict(
        payload,
        records=[
            dict(record, time_seconds=0.0) for record in payload["records"]
        ],
    )
    return payload, payload_fingerprint(
        normalized, volatile=("metrics", "events")
    )


def _payload_result(payload: dict) -> UnitResult:
    """Inverse of :func:`_group_payload` (modulo the rounded times)."""
    from repro.bench.export import record_from_dict

    records = [record_from_dict(item) for item in payload.get("records", [])]
    metrics = {
        name: CacheCounters(
            hits=int(entry["hits"]), misses=int(entry["misses"])
        )
        for name, entry in payload.get("metrics", {}).items()
    }
    return (
        records,
        metrics,
        list(payload.get("events", [])),
        list(payload.get("certificates", [])),
    )


def _run_leased(
    units: Sequence[WorkUnit],
    config: TracerConfig,
    options: RunOptions,
    max_workers: int,
    query_ids: Dict[UnitKey, List[str]],
) -> Tuple[List[Optional[UnitResult]], List[str], bool]:
    """Run ``units`` on the lease-based work-stealing scheduler
    (:func:`repro.robust.scheduler.run_leased`).  On ``resume``, groups
    that completed durably in the lease log are taken from it even when
    their unit never finished, so a unit that died 9/10 groups in
    re-solves only the last group.

    ``query_ids`` holds every unit's query ids (:func:`_pair_units`).
    Returns ``(per-unit results in unit order, failed unit
    descriptions, degraded flag)``; a failed unit's result is ``None``.
    """
    import os as _os
    import shutil as _shutil
    import tempfile as _tempfile

    from repro.robust.leases import LeaseConsistencyError

    collect = obs.active()

    # Decompose units into group tasks.
    tasks: List[TaskKey] = []
    bounds_of: Dict[TaskKey, Optional[Tuple[int, int, int]]] = {}
    queries_of: Dict[TaskKey, List[str]] = {}
    position_of: Dict[TaskKey, int] = {}
    unit_tasks: Dict[int, List[TaskKey]] = {}
    size = max(0, options.group_size)
    for position, unit in enumerate(units):
        ids = query_ids[unit.key]
        count = len(ids)
        if size and count > size:
            groups: List[Optional[Tuple[int, int, int]]] = [
                (lo, min(lo + size, count), gi)
                for gi, lo in enumerate(range(0, count, size))
            ]
        else:
            groups = [None]  # the whole unit
        for gi, bounds in enumerate(groups):
            task: TaskKey = (unit.benchmark, unit.analysis, unit.index, gi)
            tasks.append(task)
            bounds_of[task] = bounds
            queries_of[task] = (
                ids if bounds is None else ids[bounds[0]:bounds[1]]
            )
            position_of[task] = position
            unit_tasks.setdefault(position, []).append(task)

    lease_path = options.lease_path
    cleanup: Optional[str] = None
    if lease_path is None:
        cleanup = _tempfile.mkdtemp(prefix="repro-leases-")
        lease_path = _os.path.join(cleanup, "run.leases")
    bus_path = lease_path + ".bus"
    if options.clause_bus and tasks:
        # Parent creates (or truncates) the bus before any worker runs.
        ClauseBus(bus_path, worker="parent", fresh=not options.resume)

    use_bus = options.clause_bus
    # Worker state: each forked worker gets its own copy and keeps it
    # across its tasks — one bus handle, one resident client family.
    buses: Dict[int, ClauseBus] = {}
    family = _Family()

    def execute(task: TaskKey, attempt: int) -> Tuple[dict, str]:
        unit = units[position_of[task]]
        bounds = bounds_of[task]
        feed = None
        if use_bus:
            pid = _os.getpid()
            if pid not in buses:
                buses[pid] = ClauseBus(bus_path, worker=f"pid-{pid}")
            # Only a re-execution can find rounds published for its
            # scope, so a first attempt never reads the bus.
            feed = ClauseFeed(
                buses[pid],
                scope=":".join(str(p) for p in task),
                replay=attempt > 1,
            )
        try:
            result = _run_group(
                unit, bounds, config, family, collect, options.certify, feed
            )
        except ClauseFeedMismatch:
            # A drained round failed re-validation: never trust the
            # import — re-solve the whole group cold.
            if obs.active():
                obs.event(
                    "degraded",
                    reason="clause_feed_mismatch",
                    task=":".join(str(p) for p in task),
                )
            result = _run_group(
                unit, bounds, config, family, collect, options.certify
            )
        return _group_payload(task, queries_of[task], result)

    # Longest task first, so the biggest unit is not the one still
    # running while the other workers idle.  The sort is stable (ties
    # keep unit order); records are merged in unit order regardless.
    claim_order = sorted(tasks, key=lambda task: -len(queries_of[task]))
    try:
        scheduled: SchedulerResult = run_leased(
            claim_order,
            execute,
            lease_path,
            workers=max_workers,
            resume=options.resume,
            heartbeat_interval=options.heartbeat_interval,
            lease_ttl=options.lease_ttl,
            max_attempts=options.max_attempts,
            unit_timeout=options.unit_timeout,
            fault_plan=options.fault_plan,
            worker_faults=options.worker_faults,
        )
    finally:
        if cleanup is not None:
            _shutil.rmtree(cleanup, ignore_errors=True)

    results: List[Optional[UnitResult]] = [None] * len(units)
    failed: List[str] = []
    for position, unit in enumerate(units):
        errors = [
            scheduled.failed[task]
            for task in unit_tasks[position]
            if task in scheduled.failed
        ]
        if errors:
            failed.append(
                f"{unit.benchmark}:{unit.analysis}:{unit.index}: "
                f"{errors[0]}"
            )
            continue
        unit_records: List[QueryRecord] = []
        unit_metrics: Dict[str, CacheCounters] = {}
        streams: List[List[dict]] = []
        unit_certs: List[dict] = []
        for task in unit_tasks[position]:
            payload = scheduled.payloads.get(task)
            if payload is None:
                raise LeaseConsistencyError(
                    f"task {task!r} neither completed nor failed"
                )
            if payload.get("queries") != queries_of[task]:
                raise LeaseConsistencyError(
                    f"lease log records queries "
                    f"{payload.get('queries')!r} for task {task!r} but "
                    f"this evaluation decomposes it as "
                    f"{queries_of[task]!r} — the resumed log belongs to "
                    f"a different run or group size"
                )
            records, metrics, events, certificates = _payload_result(
                payload
            )
            unit_records.extend(records)
            for name, counters in metrics.items():
                unit_metrics[name] = (
                    unit_metrics.get(name, CacheCounters()) + counters
                )
            if events:
                streams.append(events)
            unit_certs.extend(certificates)
        if len(streams) > 1:
            events = merge_streams(streams)
        else:
            events = streams[0] if streams else []
        results[position] = (unit_records, unit_metrics, events, unit_certs)

    stats = dict(scheduled.stats)
    stats["resumed_tasks"] = scheduled.resumed
    stats["failed_units"] = len(failed)
    global _LAST_SCHEDULER_STATS
    _LAST_SCHEDULER_STATS = stats
    if obs.active():
        registry = obs_metrics.current_registry()
        gauge = getattr(registry, "_scheduler_gauge", None)
        if gauge is None:
            gauge = obs_metrics.Gauge(
                "scheduler",
                "lease scheduler counters of the latest evaluation",
                labelnames=("counter",),
            )
            registry.register_instrument(gauge)
            registry._scheduler_gauge = gauge
        for name, value in sorted(stats.items()):
            gauge.set(float(value), counter=name)
    retried = any(
        attempts > 1 for attempts in scheduled.attempts.values()
    )
    degraded = (
        bool(failed)
        or scheduled.resumed > 0
        or scheduled.stats.get("steals", 0) > 0
        or retried
    )
    if failed and obs.active():
        obs.event("degraded", reason="failed_units", units=failed)
    return results, failed, degraded


def work_units(bench: BenchmarkInstance, analysis: str) -> List[WorkUnit]:
    """Enumerate the independent workloads of one benchmark/analysis in
    the order the serial harness evaluates them."""
    return _pair_units(bench, bench.name, analysis, _seed_instance(bench))[0]


def _pair_units(
    bench: BenchmarkInstance, name: str, analysis: str, token: int
) -> Tuple[List[WorkUnit], Dict[UnitKey, List[str]]]:
    """The work units of one ``(benchmark, analysis)`` pair and each
    unit's query ids, from one build of the pair's client family (none
    of which is kept: forked workers would inherit it)."""
    front = None if bench.standard else bench.front
    units: List[WorkUnit] = []
    query_ids: Dict[UnitKey, List[str]] = {}
    setups = analysis_setups(bench, analysis)
    for index, (_client, queries) in enumerate(setups):
        unit = WorkUnit(name, analysis, index, token, front)
        units.append(unit)
        query_ids[unit.key] = [str(query) for query in queries]
    return units, query_ids


def _merge(
    bench_name: str,
    analysis: str,
    unit_results: Sequence[Optional[UnitResult]],
    wall_seconds: float,
    degraded: bool = False,
    failed_units: Sequence[str] = (),
) -> EvalResult:
    """Deterministic merge: concatenate unit records in unit order and
    sum the units' registry snapshots name-by-name.  ``None`` entries
    are units that exhausted their retries; their identities are in
    ``failed_units``."""
    records: List[QueryRecord] = []
    metrics: Dict[str, CacheCounters] = {}
    certificates: List[dict] = []
    for unit_result in unit_results:
        if unit_result is None:
            continue
        unit_records, unit_metrics, _events, unit_certs = unit_result
        records.extend(unit_records)
        certificates.extend(unit_certs)
        for name, counters in unit_metrics.items():
            metrics[name] = metrics.get(name, CacheCounters()) + counters
    forward, wp_cache, dispatch_cache = counters_from_metrics(metrics)
    return EvalResult(
        benchmark=bench_name,
        analysis=analysis,
        records=records,
        wall_seconds=wall_seconds,
        forward_hits=forward.hits,
        forward_misses=forward.misses,
        wp_cache=wp_cache,
        dispatch_cache=dispatch_cache,
        metrics=metrics,
        degraded=degraded,
        failed_units=tuple(failed_units),
        certificates=certificates,
    )


def _replay_into_parent(unit_results: Sequence[Optional[UnitResult]]) -> None:
    """Re-emit the workers' captured event streams (merged in unit
    order, span ids re-allocated) into the parent's active trace, and
    append one metric record per merged counter name."""
    context = obs.current()
    if context is None:
        return
    streams = [
        unit_result[2]
        for unit_result in unit_results
        if unit_result is not None and unit_result[2]
    ]
    if streams:
        context.ingest(merge_streams(streams))


def _emit_metrics(result: EvalResult) -> None:
    if not obs.active():
        return
    for name, counters in sorted(result.metrics.items()):
        obs.metric(
            name,
            counters.hits,
            counters.misses,
            benchmark=result.benchmark,
            analysis=result.analysis,
        )


def evaluate_benchmark_parallel(
    bench: BenchmarkInstance,
    analysis: str,
    config: TracerConfig = DEFAULT_CONFIG,
    jobs: int = 2,
    options: Optional[RunOptions] = None,
) -> EvalResult:
    """Parallel counterpart of ``evaluate_benchmark``: same records in
    the same order, computed by up to ``jobs`` worker processes that
    are retried/respawned on crashes rather than trusted."""
    from repro.bench.harness import evaluate_benchmark

    options = options if options is not None else RunOptions()
    if not options.scheduled(jobs):
        return evaluate_benchmark(bench, analysis, config, options=options)
    units, query_ids = _pair_units(
        bench, bench.name, analysis, _seed_instance(bench)
    )
    # A single unit leaves nothing to spread, so it runs serially —
    # unless the run keeps a lease log, groups queries, bounds a task's
    # time or injects faults, which only the scheduler honours.
    if (
        len(units) <= 1
        and options.fault_plan is None
        and not options.scheduled(1)
    ):
        return evaluate_benchmark(bench, analysis, config, options=options)
    started = time.perf_counter()
    unit_results, failed, degraded = _run_leased(
        units, config, options, max(1, min(jobs, len(units))), query_ids
    )
    _replay_into_parent(unit_results)
    result = _merge(
        bench.name,
        analysis,
        unit_results,
        time.perf_counter() - started,
        degraded=degraded,
        failed_units=failed,
    )
    _emit_metrics(result)
    return result


def evaluate_many(
    instances: Dict[str, BenchmarkInstance],
    analyses: Sequence[str],
    config: TracerConfig = DEFAULT_CONFIG,
    jobs: int = 1,
    options: Optional[RunOptions] = None,
) -> Dict[str, Dict[str, EvalResult]]:
    """Evaluate ``analyses`` over every benchmark in ``instances`` on
    one lease scheduler run.

    All units of all ``(benchmark, analysis)`` pairs are fanned out
    together, so a long escape run on one benchmark overlaps the many
    small typestate units of another.  The result mapping (and every
    record list in it) is ordered exactly as the serial nested loops
    would produce it — including across worker crashes, retries, and
    resumption from the lease log.
    """
    options = options if options is not None else RunOptions()
    pairs = [
        (name, analysis) for name in instances for analysis in analyses
    ]
    if not options.scheduled(jobs):
        from repro.bench.harness import evaluate_benchmark

        return_serial: Dict[str, Dict[str, EvalResult]] = {}
        for name, analysis in pairs:
            return_serial.setdefault(name, {})[analysis] = evaluate_benchmark(
                instances[name], analysis, config, options=options
            )
        return return_serial

    started = time.perf_counter()
    tokens: Dict[str, int] = {}
    flat: List[WorkUnit] = []
    spans: Dict[Tuple[str, str], Tuple[int, int]] = {}
    query_ids: Dict[UnitKey, List[str]] = {}
    for name, analysis in pairs:
        bench = instances[name]
        # One seed token per instance, shared by its analyses.
        if name not in tokens:
            tokens[name] = _seed_instance(bench)
        units, ids = _pair_units(bench, name, analysis, tokens[name])
        spans[(name, analysis)] = (len(flat), len(flat) + len(units))
        flat.extend(units)
        query_ids.update(ids)
    flat_results, failed, degraded = _run_leased(
        flat, config, options, max(1, jobs), query_ids
    )
    wall = time.perf_counter() - started
    _replay_into_parent(flat_results)
    out: Dict[str, Dict[str, EvalResult]] = {}
    for name, analysis in pairs:
        lo, hi = spans[(name, analysis)]
        prefix = f"{name}:{analysis}:"
        result = _merge(
            name,
            analysis,
            flat_results[lo:hi],
            wall,
            degraded=degraded,
            failed_units=[f for f in failed if f.startswith(prefix)],
        )
        _emit_metrics(result)
        out.setdefault(name, {})[analysis] = result
    return out
