"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``solve-typestate FILE`` — resolve a type-state query on a program
  written in the text syntax of :mod:`repro.lang.parser`;
* ``solve-escape FILE`` — resolve a thread-escape (object locality)
  query on such a program;
* ``eval`` — run the paper's full evaluation (Tables 1-4, Figures
  12-14) on the synthetic benchmark suite;
* ``certify FILE`` — independently re-validate verdict certificates
  emitted by ``--certify-out`` (see ``docs/ROBUSTNESS.md``);
* ``selfcheck ANALYSIS FILE`` — machine-check a client analysis's
  transfer/wp contracts on a program (``docs/WRITING_A_CLIENT.md``);
* ``info NAME`` — print one benchmark's Table 1 row and query counts;
* ``serve`` / ``submit`` — the analysis daemon and its client
  (``docs/SERVING.md``);
* ``top`` — live TTY dashboard over a running daemon (QPS, tier mix,
  latency quantiles; ``--once`` for a single snapshot frame);
* ``trace validate|summarize|profile|transcript FILE...`` — work with
  recorded JSONL traces (see ``--trace-out`` and
  ``docs/OBSERVABILITY.md``); ``summarize`` and ``profile`` accept
  multiple files and merge the streams deterministically.

Variable/site/field universes are inferred from the program text, so a
minimal invocation is just::

    python -m repro solve-typestate prog.rp --query check1 --allowed closed
    python -m repro solve-escape prog.rp --query pc --var u

Every solver accepts ``--trace-out FILE`` (record a structured JSONL
trace of the search) and ``--progress`` (live per-iteration feed on
stderr); ``eval`` accepts the same and merges worker traces
deterministically under ``--jobs``.

Robustness flags (see ``docs/ROBUSTNESS.md``): solvers take
``--max-seconds`` / ``--max-steps`` (cooperative budgets resolving
overruns as UNRESOLVED), ``--lenient`` (contain client errors),
``--inject`` (deterministic fault injection), ``--journal`` /
``--resume-journal`` (crash-recoverable CEGAR journal), and
``--certify-out`` (emit independently checkable verdict certificates);
``eval`` adds ``--retries`` / ``--unit-timeout`` (bounded retries and
per-task timeouts on the lease scheduler), ``--checkpoint`` /
``--resume`` (keep the lease log and resume from its completed query
groups), and ``--certify-out``.

Exit codes are meaningful so scripts can branch on the verdict:

* 0 — proven (solvers) / evaluation fully resolved;
* 10 — IMPOSSIBLE: no abstraction in the family proves the query;
* 20 — EXHAUSTED: budgets/errors stopped the search short of a verdict;
* 30 — ``eval`` finished but some work units failed permanently;
* 1 — operational failure (``certify``/``selfcheck`` found violations,
  invalid trace, bad arguments).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from repro.core.narrate import narrate, transcript_from_events
from repro.core.stats import QueryStatus
from repro.core.tracer import TracerConfig
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs
from repro.obs.aggregate import profile_trace, render_profile
from repro.obs.events import SCHEMA_VERSION, merge_streams
from repro.obs.sinks import JsonlSink, MultiSink, Sink, TtySink
from repro.obs.summarize import (
    load_trace,
    render_summary,
    summarize_trace,
    validate_trace,
)
from repro.escape.client import EscapeQuery
from repro.provenance.client import ProvenanceQuery
from repro.typestate.client import TypestateQuery

#: Verdict exit codes (documented above; tested in tests/test_cli.py).
EXIT_OK = 0
EXIT_IMPOSSIBLE = 10
EXIT_EXHAUSTED = 20
EXIT_FAILED_UNITS = 30


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=_beam, default=5, metavar="K",
                        help="beam width of the meta-analysis; 'none' disables it")
    parser.add_argument("--max-iterations", type=int, default=60)
    parser.add_argument("--narrate", action="store_true",
                        help="print the full Figure-1 style transcript")
    _add_robust(parser)
    _add_journal(parser)
    _add_obs(parser)


def _add_robust(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="per-query wall-clock budget; overruns resolve as UNRESOLVED",
    )
    parser.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="per-query solver step budget (worklist iterations + backward "
             "commands); overruns resolve as UNRESOLVED",
    )
    parser.add_argument(
        "--lenient", action="store_true",
        help="contain unexpected client errors to the failing query "
             "instead of crashing the solve",
    )
    parser.add_argument(
        "--inject", action="append", default=[], metavar="SITE:ACTION[:K=V,..]",
        help="deterministic fault injection for robustness testing, e.g. "
             "'backward:raise:error=explosion' or 'forward_run:delay:delay=0.1' "
             "(repeatable; see docs/ROBUSTNESS.md)",
    )


def _add_journal(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--journal", metavar="FILE",
        help="append a crash-recoverable search journal to FILE "
             "(one JSONL round record per CEGAR iteration)",
    )
    parser.add_argument(
        "--resume-journal", metavar="FILE",
        help="replay FILE's recorded rounds before searching live, then "
             "keep journaling to it (resuming a killed solve)",
    )
    parser.add_argument(
        "--certify-out", metavar="FILE",
        help="write an independently checkable verdict certificate per "
             "resolved query to FILE (validate with 'repro certify')",
    )
    parser.add_argument(
        "--store", metavar="FILE",
        help="attach a persistent cross-run knowledge store: warm-start "
             "this search from FILE's recorded knowledge and record the "
             "finished search back to it (see docs/SERVING.md)",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="record a structured JSONL trace of the search to FILE",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print live per-iteration progress to stderr",
    )


def _build_sink(args) -> Optional[Sink]:
    """Combine the sinks requested on the command line (or ``None``)."""
    sinks: List[Sink] = []
    if getattr(args, "trace_out", None):
        sinks.append(JsonlSink(args.trace_out))
    if getattr(args, "progress", False):
        sinks.append(TtySink(sys.stderr))
    if not sinks:
        return None
    return sinks[0] if len(sinks) == 1 else MultiSink(sinks)


def _beam(text: str) -> Optional[int]:
    if text.lower() in ("none", "all", "off"):
        return None
    return int(text)


def _config(args) -> TracerConfig:
    return TracerConfig(
        k=args.k,
        max_iterations=args.max_iterations,
        max_seconds=getattr(args, "max_seconds", None),
        max_steps=getattr(args, "max_steps", None),
        strict=not getattr(args, "lenient", False),
    )


def _fault_plan(args):
    """Build the ``--inject`` fault plan, or ``None``."""
    specs = getattr(args, "inject", None) or []
    if not specs:
        return None
    from repro.robust.faults import FaultPlan

    try:
        return FaultPlan.from_specs(specs)
    except ValueError as error:
        _die(str(error))


def _report(client, query, args, stamp: Optional[dict] = None) -> int:
    from repro.robust.faults import fault_scope

    with fault_scope(_fault_plan(args)):
        return _report_inner(client, query, args, stamp)


def _status_code(status: QueryStatus) -> int:
    if status is QueryStatus.IMPOSSIBLE:
        return EXIT_IMPOSSIBLE
    if status is QueryStatus.EXHAUSTED:
        return EXIT_EXHAUSTED
    return EXIT_OK


def _open_journal(args):
    """Build the ``--journal`` / ``--resume-journal`` journal, or
    ``None`` when neither was requested."""
    journal_path = getattr(args, "journal", None)
    resume_path = getattr(args, "resume_journal", None)
    if journal_path and resume_path:
        _die("pass either --journal or --resume-journal, not both")
    if not journal_path and not resume_path:
        return None
    from repro.robust.journal import SearchJournal

    return SearchJournal(resume_path or journal_path, resume=bool(resume_path))


def _report_inner(client, query, args, stamp: Optional[dict] = None) -> int:
    sink = _build_sink(args)
    journal = _open_journal(args)
    certify_out = getattr(args, "certify_out", None)
    if args.narrate and (journal is not None or certify_out):
        _die("--narrate cannot be combined with --journal/--resume-journal/"
             "--certify-out (journaled runs use the driver, not the narrator)")
    if args.narrate:
        # narrate installs its own detail-tracing context and forwards
        # the event stream to the extra sink, so --trace-out traces
        # carry the full per-iteration detail payloads.
        transcript = narrate(client, query, _config(args), sink=sink)
        print(transcript.render())
        status = transcript.status
        abstraction = transcript.abstraction
        iterations = len(transcript.iterations)
    else:
        store = None
        if certify_out:
            from repro.robust.certify import CertificateStore

            store = CertificateStore()
        try:
            record = _solve_traced(
                client, query, args, sink, journal=journal, certificates=store
            )
        finally:
            if journal is not None:
                journal.close()
        if store is not None:
            from repro.robust.certify import write_certificates

            if stamp is not None:
                store.stamp(stamp)
            write_certificates(store.certificates, certify_out)
            print(f"wrote {len(store.certificates)} certificate(s) "
                  f"to {certify_out}")
        status = record.status
        abstraction = record.abstraction
        iterations = record.iterations
        if status is QueryStatus.PROVEN:
            shown = "{" + ", ".join(sorted(abstraction)) + "}"
            print(f"PROVEN with cheapest abstraction {shown} "
                  f"({iterations} iterations)")
        elif status is QueryStatus.IMPOSSIBLE:
            print(f"IMPOSSIBLE: no abstraction in the family proves the "
                  f"query ({iterations} iterations)")
        else:
            print(f"UNRESOLVED after {iterations} iterations")
    return _status_code(status)


def _open_store(args):
    """Open the ``--store`` knowledge store, or ``None``."""
    path = getattr(args, "store", None)
    if not path:
        return None
    from repro.serve.store import KnowledgeStore

    try:
        return KnowledgeStore(path)
    except ValueError as error:
        _die(str(error))


def _solve_traced(client, query, args, sink: Optional[Sink],
                  journal=None, certificates=None):
    """Run one query through the process-wide analysis session (which
    owns the forward-run cache, so it outlives the solve — the metrics
    registry holds weak references — and, under ``--store``, the
    warm-start against the knowledge store)."""
    from repro.serve.session import process_session

    config = _config(args)
    session = process_session()
    store = _open_store(args)
    previous = session.store
    session.store = store
    source = f"cli:{getattr(args, 'file', '')}:{query}"
    try:
        if sink is None:
            result = session.solve(
                client, [query], config,
                journal=journal, certificates=certificates, source=source,
            )
        else:
            with obs.tracing(sink, detail=bool(args.trace_out)):
                result = session.solve(
                    client, [query], config,
                    journal=journal, certificates=certificates,
                    source=source,
                )
                # Close the trace with one metric record per registered
                # cache (the client's caches registered on construction,
                # before this function ran, so read the ambient registry
                # — not a scoped one).
                for name, counters in sorted(
                    obs_metrics.current_registry().snapshot().items()
                ):
                    obs.metric(name, counters.hits, counters.misses)
    finally:
        session.store = previous
        if store is not None:
            store.close()
    if store is not None:
        print(f"store: {result.mode}"
              + (" (replayed without re-running the search)"
                 if result.store_hit else ""),
              file=sys.stderr)
    return result.records[query]


def _read_program_file(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as error:
        _die(str(error))


def _typestate_client(path: str, automaton_name: str, site: Optional[str]):
    """Build the type-state client of one program file through the
    resident session.  Shared by ``solve-typestate``, ``selfcheck``,
    and the ``certify`` rebuild, so a certificate's stamp reconstructs
    the exact emitting client."""
    from repro.serve.session import process_session

    try:
        return process_session().typestate_client(
            _read_program_file(path), automaton_name, site
        )
    except ValueError as error:
        _die(f"{path}: {error}")


def _escape_client(path: str):
    from repro.serve.session import process_session

    try:
        return process_session().escape_client(_read_program_file(path))
    except ValueError as error:
        _die(f"{path}: {error}")


def _provenance_client(path: str):
    from repro.serve.session import process_session

    try:
        return process_session().provenance_client(_read_program_file(path))
    except ValueError as error:
        _die(f"{path}: {error}")


def _require_label(universe, label: str) -> None:
    if label not in universe.observe_labels:
        _die(f"no 'observe {label}' in the program "
             f"(labels: {sorted(universe.observe_labels)})")


def _cmd_solve_typestate(args) -> int:
    client, universe, automaton, site = _typestate_client(
        args.file, args.automaton, args.site
    )
    _require_label(universe, args.query)
    allowed = frozenset(args.allowed.split(","))
    unknown = allowed - automaton.states
    if unknown:
        _die(f"unknown type-states {sorted(unknown)}; "
             f"automaton has {sorted(automaton.states)}")
    print(f"tracking site {site} with the {automaton.name} automaton; "
          f"{len(universe.variables)} variables (2^{len(universe.variables)} abstractions)")
    stamp = {
        "kind": "typestate",
        "file": args.file,
        "query": args.query,
        "allowed": sorted(allowed),
        "automaton": args.automaton,
        "site": site,
    }
    return _report(client, TypestateQuery(args.query, allowed), args, stamp)


def _cmd_solve_escape(args) -> int:
    client, universe = _escape_client(args.file)
    _require_label(universe, args.query)
    if args.var not in universe.variables:
        _die(f"unknown variable {args.var!r} "
             f"(variables: {sorted(universe.variables)})")
    print(f"{len(universe.sites)} allocation sites "
          f"(2^{len(universe.sites)} abstractions)")
    stamp = {
        "kind": "escape",
        "file": args.file,
        "query": args.query,
        "var": args.var,
    }
    return _report(client, EscapeQuery(args.query, args.var), args, stamp)


def _cmd_solve_provenance(args) -> int:
    client, universe = _provenance_client(args.file)
    _require_label(universe, args.query)
    if args.var not in universe.variables:
        _die(f"unknown variable {args.var!r} "
             f"(variables: {sorted(universe.variables)})")
    if args.allowed:
        allowed = frozenset(args.allowed.split(","))
        unknown = allowed - universe.sites
        if unknown:
            _die(f"unknown sites {sorted(unknown)} "
                 f"(sites: {sorted(universe.sites)})")
    else:
        allowed = universe.sites
    print(f"{len(universe.sites)} allocation sites "
          f"(2^{len(universe.sites)} abstractions); "
          f"allowed: {sorted(allowed)}")
    stamp = {
        "kind": "provenance",
        "file": args.file,
        "query": args.query,
        "var": args.var,
        "allowed": sorted(allowed),
    }
    return _report(
        client, ProvenanceQuery(args.query, args.var, allowed), args, stamp
    )


def _cmd_eval(args) -> int:
    from repro.bench.parallel import RunOptions
    from repro.bench.report import SMALLEST, full_report
    from repro.bench.suite import BENCHMARK_NAMES
    from repro.robust.faults import fault_scope

    names = SMALLEST if args.quick else BENCHMARK_NAMES
    if args.resume and not args.checkpoint:
        _die("--resume needs --checkpoint FILE to resume from")
    plan = _fault_plan(args)
    options = RunOptions(
        max_attempts=args.retries,
        unit_timeout=args.unit_timeout,
        lease_path=args.checkpoint,
        resume=args.resume,
        certify=bool(args.certify_out),
        group_size=max(0, args.group_size),
        heartbeat_interval=args.heartbeat_interval,
        lease_ttl=args.lease_ttl,
        clause_bus=not args.no_clause_bus,
    )
    # The scheduler ships the plan to its workers inside ``options``; a
    # serial run installs it around the whole evaluation instead.
    if options.scheduled(args.jobs):
        options = dataclasses.replace(options, fault_plan=plan)
        plan = None

    config = TracerConfig(k=args.k, max_iterations=30)

    def run():
        with fault_scope(plan):
            return full_report(
                names=names, k=args.k, jobs=args.jobs, options=options,
                config=config,
            )

    sink = _build_sink(args)
    if sink is None:
        results = run()
    else:
        # One ambient context around the whole evaluation: the serial
        # harness emits into it directly; the parallel harness collects
        # worker streams and replays them here in work-unit order.
        with obs.tracing(sink):
            results = run()
    if args.json:
        from repro.bench.export import export_json

        export_json(results, args.json)
        print(f"wrote {args.json}")
    if args.certify_out:
        from repro.robust.certify import write_certificates

        certificates = [
            cert
            for per_analysis in results.values()
            for result in per_analysis.values()
            for cert in result.certificates
        ]
        write_certificates(certificates, args.certify_out)
        print(f"wrote {len(certificates)} certificate(s) to {args.certify_out}")
    failed = [
        unit
        for per_analysis in results.values()
        for result in per_analysis.values()
        for unit in result.failed_units
    ]
    return EXIT_FAILED_UNITS if failed else EXIT_OK


def _cmd_certify(args) -> int:
    from repro.robust.certify import check_certificate, load_certificates

    try:
        certificates = load_certificates(args.file)
    except (OSError, ValueError) as error:
        _die(str(error))
    if not certificates:
        print("no certificates to check")
        return 0
    memo: dict = {}
    failures = 0
    for cert in certificates:
        label = f"{cert.get('verdict', '?'):<10} {cert.get('query', '?')}"
        try:
            client, query = _certified_client(cert, memo)
        except (KeyError, IndexError, TypeError, ValueError) as error:
            print(f"FAIL {label}: cannot rebuild the emitting client "
                  f"from the stamp ({error!r})")
            failures += 1
            continue
        report = check_certificate(client, query, cert)
        if report.ok:
            print(f"OK   {label}")
        else:
            failures += 1
            print(f"FAIL {label}")
            for problem in report.problems:
                print(f"     - {problem}")
    print(f"{len(certificates) - failures}/{len(certificates)} "
          f"certificates check out")
    return 0 if failures == 0 else 1


def _certified_client(cert: dict, memo: dict):
    """Rebuild the ``(client, query)`` a certificate was emitted
    against, from its ``client`` stamp alone.  ``memo`` caches prepared
    benchmarks and parsed programs across certificates of one file."""
    stamp = cert.get("client")
    if not isinstance(stamp, dict):
        raise KeyError("certificate carries no client stamp")
    kind = stamp.get("kind")
    if kind == "bench":
        from repro.bench.harness import analysis_setups, prepare

        name = stamp["benchmark"]
        bench = memo.get(("bench", name))
        if bench is None:
            bench = memo[("bench", name)] = prepare(name)
        key = ("setups", name, stamp["analysis"])
        setups = memo.get(key)
        if setups is None:
            setups = memo[key] = analysis_setups(bench, stamp["analysis"])
        client, queries = setups[stamp["index"]]
        query = queries[stamp["query_index"]]
    elif kind == "typestate":
        key = ("typestate", stamp["file"], stamp["automaton"], stamp["site"])
        client = memo.get(key)
        if client is None:
            client, _universe, _automaton, _site = _typestate_client(
                stamp["file"], stamp["automaton"], stamp["site"]
            )
            memo[key] = client
        query = TypestateQuery(stamp["query"], frozenset(stamp["allowed"]))
    elif kind == "escape":
        key = ("escape", stamp["file"])
        client = memo.get(key)
        if client is None:
            client, _universe = _escape_client(stamp["file"])
            memo[key] = client
        query = EscapeQuery(stamp["query"], stamp["var"])
    elif kind == "provenance":
        key = ("provenance", stamp["file"])
        client = memo.get(key)
        if client is None:
            client, _universe = _provenance_client(stamp["file"])
            memo[key] = client
        query = ProvenanceQuery(
            stamp["query"], stamp["var"], frozenset(stamp["allowed"])
        )
    else:
        raise ValueError(f"unknown client stamp kind {kind!r}")
    if str(query) != cert.get("query"):
        raise ValueError(
            f"stamp rebuilds query {str(query)!r} but the certificate "
            f"is about {cert.get('query')!r}"
        )
    return client, query


def _cmd_selfcheck(args) -> int:
    from repro.core.selfcheck import check_transfer_total, check_wp
    from repro.lang.ast import atoms_of

    if args.analysis == "typestate":
        client, _universe, _automaton, _site = _typestate_client(
            args.file, args.automaton, args.site
        )
    elif args.analysis == "escape":
        client, _universe = _escape_client(args.file)
    else:
        client, _universe = _provenance_client(args.file)
    prims, pairs = client.selfcheck_space()
    pairs = list(pairs)
    commands = list(atoms_of(client.program))
    print(f"selfcheck: {len(commands)} commands x {len(prims)} primitives "
          f"x {len(pairs)} (p, d) samples")
    violations = check_transfer_total(
        client.analysis, commands, pairs, max_violations=args.max_violations
    )
    violations += check_wp(
        client.analysis, client.meta, commands, prims, pairs,
        max_violations=args.max_violations,
    )
    if violations:
        for violation in violations:
            print(f"  {violation}")
        print(f"FAILED: {len(violations)} violation(s)")
        return 1
    print("OK: transfer totality and wp-homomorphism hold on every sample")
    return 0


def _cmd_trace_validate(args) -> int:
    records = _load_trace_or_die(args.file)
    errors = validate_trace(records)
    if errors:
        for error in errors:
            print(f"invalid: {error}", file=sys.stderr)
        return 1
    print(f"OK: {len(records)} records, schema version {SCHEMA_VERSION}")
    return 0


def _load_merged_traces(paths: List[str]) -> List[dict]:
    """Load one or more trace files; multiple files are merged through
    ``merge_streams`` (worker/daemon traces need no hand-merging)."""
    streams = [_load_trace_or_die(path) for path in paths]
    if len(streams) == 1:
        return streams[0]
    return merge_streams(streams)


def _cmd_trace_summarize(args) -> int:
    records = _load_merged_traces(args.files)
    errors = validate_trace(records)
    if errors:
        for error in errors:
            print(f"invalid: {error}", file=sys.stderr)
        return 1
    print(render_summary(summarize_trace(records)))
    return 0


def _cmd_trace_profile(args) -> int:
    streams = [_load_trace_or_die(path) for path in args.files]
    for path, stream in zip(args.files, streams):
        errors = validate_trace(
            stream if len(streams) == 1 else merge_streams([stream])
        )
        if errors:
            for error in errors:
                print(f"invalid ({path}): {error}", file=sys.stderr)
            return 1
    profile = profile_trace(streams)
    print(render_profile(profile, top=args.top, by_trace=args.by_trace))
    return 0


def _cmd_trace_transcript(args) -> int:
    records = _load_trace_or_die(args.file)
    try:
        transcript = transcript_from_events(records, query=args.query)
    except ValueError as error:
        _die(str(error))
    print(transcript.render())
    return 0


def _load_trace_or_die(path: str) -> List[dict]:
    try:
        return load_trace(path)
    except (OSError, ValueError) as error:
        _die(str(error))


def _cmd_info(args) -> int:
    from repro.bench.harness import escape_setup, prepare, typestate_setup
    from repro.bench.tables import render_table1

    bench = prepare(args.name)
    print(render_table1([bench.metrics]))
    _client, escape_queries = escape_setup(bench)
    typestate_queries = sum(len(qs) for _c, qs in typestate_setup(bench))
    print(f"\nqueries: {typestate_queries} type-state, {len(escape_queries)} thread-escape")
    print(f"recursion cuts during inlining: {bench.inlined.recursion_cuts}")
    return 0


def _die(message: str) -> None:
    raise SystemExit(f"error: {message}")


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.server import AnalysisServer

    config = TracerConfig(
        k=args.k,
        max_iterations=args.max_iterations,
        max_seconds=args.max_seconds,
        max_steps=args.max_steps,
    )
    try:
        server = AnalysisServer(
            args.socket,
            args.store,
            config,
            metrics_out=args.metrics_out,
            metrics_interval=args.metrics_interval,
            workers=args.workers,
            queue_depth=args.queue_depth,
            max_deadline_ms=args.max_deadline_ms,
            request_timeout=args.request_timeout,
            max_request_bytes=args.max_request_bytes,
            compact_ratio=args.compact_ratio,
            compact_min_entries=args.compact_min_entries,
            fault_specs=tuple(args.inject or ()),
        )
    except (ValueError, OSError) as error:
        _die(str(error))
    print(
        f"repro daemon listening on {args.socket}"
        + (f" (store: {args.store})" if args.store else "")
        + (f" ({args.workers} supervised workers)" if args.workers else
           " (inline execution)"),
        file=sys.stderr,
    )
    from repro.robust import faults

    # The daemon-side fault plan (chaos testing): sites like
    # serve.worker_kill and store.compact.* fire in this process; the
    # same specs ship to each pool worker, whose plan counts afresh.
    plan = (
        faults.FaultPlan.from_specs(list(args.inject))
        if args.inject else None
    )
    try:
        with faults.fault_scope(plan):
            if args.trace_out:
                # The trace context is a module global, so the worker
                # thread the requests run on sees it too.
                with obs.tracing(JsonlSink(args.trace_out)):
                    asyncio.run(server.run())
            else:
                asyncio.run(server.run())
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _cmd_top(args) -> int:
    from repro.serve.client import ServeError
    from repro.serve.top import run_lease_top, run_top

    if args.leases and args.socket:
        _die("--socket and --leases are mutually exclusive")
    if not args.leases and not args.socket:
        _die("top needs --socket PATH (daemon) or --leases FILE (scheduler)")
    try:
        if args.leases:
            return run_lease_top(
                args.leases,
                ttl=args.lease_ttl,
                interval=args.interval,
                frames=1 if args.once else args.frames,
                clear=not args.no_clear and sys.stdout.isatty(),
            )
        return run_top(
            args.socket,
            interval=args.interval,
            frames=1 if args.once else args.frames,
            clear=not args.no_clear and sys.stdout.isatty(),
        )
    except ServeError as error:
        _die(str(error))
    except KeyboardInterrupt:
        return EXIT_OK


def _cmd_store(args) -> int:
    import os

    from repro.serve.store import KnowledgeStore, verify_store

    if not os.path.exists(args.file):
        _die(f"no such store: {args.file}")
    if args.store_command == "verify":
        problems, summary = verify_store(args.file)
        print(json.dumps(summary, indent=2, sort_keys=True))
        for problem in problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
        if problems:
            print(f"{len(problems)} problem(s) found", file=sys.stderr)
            return EXIT_FAILED_UNITS
        print("store is healthy", file=sys.stderr)
        return EXIT_OK
    # Every store handle appends and compacts under the log's flock, so
    # compact and stats are safe while a daemon serves the same file.
    try:
        with KnowledgeStore(args.file) as store:
            if args.store_command == "stats":
                print(json.dumps(store.stats(), indent=2, sort_keys=True))
            else:
                result = store.compact()
                print(json.dumps(result, indent=2, sort_keys=True))
                print(
                    f"compacted: {result['entries_before']} -> "
                    f"{result['entries_after']} entries, "
                    f"{result['bytes_before']} -> "
                    f"{result['bytes_after']} bytes",
                    file=sys.stderr,
                )
    except ValueError as error:
        _die(str(error))
    return EXIT_OK


def _worst_verdict_code(results: List[dict]) -> int:
    code = EXIT_OK
    for entry in results:
        if entry["verdict"] == QueryStatus.EXHAUSTED.value:
            code = max(code, EXIT_EXHAUSTED)
        elif entry["verdict"] == QueryStatus.IMPOSSIBLE.value:
            code = max(code, EXIT_IMPOSSIBLE)
    return code


def _cmd_submit(args) -> int:
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.socket, timeout=args.timeout,
                         retries=args.retries)
    config = {}
    if args.max_seconds is not None:
        config["max_seconds"] = args.max_seconds
    if args.max_steps is not None:
        config["max_steps"] = args.max_steps
    extra = {}
    if args.deadline_ms is not None:
        extra["deadline_ms"] = args.deadline_ms
    try:
        if args.ping:
            reply = client.ping()
            print(f"pong from pid {reply['pid']}")
            return EXIT_OK
        if args.stats:
            reply = client.stats()
            print(json.dumps(reply, indent=2, sort_keys=True))
            return EXIT_OK
        if args.metrics:
            reply = client.metrics()
            sys.stdout.write(reply["prometheus"])
            return EXIT_OK
        if args.shutdown:
            client.shutdown()
            print("daemon stopping")
            return EXIT_OK
        if args.benchmark:
            reply = client.solve_benchmark(
                args.benchmark, args.analysis, config or None, **extra
            )
            by_verdict: dict = {}
            for entry in reply["results"]:
                by_verdict[entry["verdict"]] = (
                    by_verdict.get(entry["verdict"], 0) + 1
                )
            shown = ", ".join(
                f"{count} {verdict}"
                for verdict, count in sorted(by_verdict.items())
            )
            print(
                f"{args.benchmark}/{args.analysis}: "
                f"{len(reply['results'])} queries ({shown or 'none'}); "
                f"modes: {', '.join(reply['modes'])}; "
                f"store hits: {reply['store_hits']}"
            )
            return _worst_verdict_code(reply["results"])
        if not args.file or not args.query:
            _die("submit needs a FILE and --query "
                 "(or --ping/--stats/--metrics/--shutdown/--benchmark)")
        params = {"source": f"cli:{args.file}"}
        if args.kind == "typestate":
            params["automaton"] = args.automaton
            if args.site:
                params["site"] = args.site
            if args.allowed:
                params["allowed"] = args.allowed.split(",")
        else:
            if not args.var:
                _die(f"--kind {args.kind} needs --var")
            params["var"] = args.var
            if args.kind == "provenance" and args.allowed:
                params["allowed"] = args.allowed.split(",")
        reply = client.solve(
            args.kind,
            _read_program_file(args.file),
            query=args.query,
            config=config or None,
            **extra,
            **params,
        )
    except ServeError as error:
        _die(str(error))
    finally:
        client.close()
    entry = reply["results"][0]
    print(f"store: {reply['mode']}", file=sys.stderr)
    if entry["verdict"] == QueryStatus.PROVEN.value:
        shown = "{" + ", ".join(entry["abstraction"]) + "}"
        print(f"PROVEN with cheapest abstraction {shown} "
              f"({entry['iterations']} iterations)")
    elif entry["verdict"] == QueryStatus.IMPOSSIBLE.value:
        print(f"IMPOSSIBLE: no abstraction in the family proves the "
              f"query ({entry['iterations']} iterations)")
    else:
        print(f"UNRESOLVED after {entry['iterations']} iterations")
    return _worst_verdict_code(reply["results"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    typestate = commands.add_parser(
        "solve-typestate", help="resolve a type-state query on a program file"
    )
    typestate.add_argument("file")
    typestate.add_argument("--query", required=True, help="observe label to check")
    typestate.add_argument(
        "--allowed", default="closed",
        help="comma-separated type-states allowed at the query (default: closed)",
    )
    typestate.add_argument(
        "--automaton", choices=("file", "stress"), default="file"
    )
    typestate.add_argument("--site", help="tracked allocation site (default: first)")
    _add_common(typestate)
    typestate.set_defaults(func=_cmd_solve_typestate)

    escape = commands.add_parser(
        "solve-escape", help="resolve an object-locality query on a program file"
    )
    escape.add_argument("file")
    escape.add_argument("--query", required=True, help="observe label to check")
    escape.add_argument("--var", required=True, help="variable whose locality to prove")
    _add_common(escape)
    escape.set_defaults(func=_cmd_solve_escape)

    provenance = commands.add_parser(
        "solve-provenance",
        help="resolve an allocation-site provenance query on a program file",
    )
    provenance.add_argument("file")
    provenance.add_argument("--query", required=True, help="observe label to check")
    provenance.add_argument("--var", required=True, help="variable whose provenance to prove")
    provenance.add_argument(
        "--allowed",
        default="",
        help="comma-separated allowed allocation sites (default: all)",
    )
    _add_common(provenance)
    provenance.set_defaults(func=_cmd_solve_provenance)

    evaluation = commands.add_parser(
        "eval", help="run the paper's full evaluation on the synthetic suite"
    )
    evaluation.add_argument(
        "--quick", action="store_true", help="only the 4 smallest benchmarks"
    )
    evaluation.add_argument("--k", type=_beam, default=5, metavar="K")
    evaluation.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan independent workloads across N worker processes",
    )
    evaluation.add_argument(
        "--json", metavar="PATH", help="also write results as JSON"
    )
    evaluation.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="attempts per task before its unit is recorded as failed "
             "(a crashed worker's task is claimed again); applies to "
             "scheduled runs (--jobs above 1, --checkpoint, --group-size "
             "or --unit-timeout), a serial run makes one attempt",
    )
    evaluation.add_argument(
        "--unit-timeout", type=float, default=None, metavar="S",
        help="wall-clock allowance per task attempt: the worker still "
             "holding the task after S seconds is killed and the task "
             "retried (without --jobs, the run goes through the "
             "scheduler on one worker)",
    )
    evaluation.add_argument(
        "--checkpoint", metavar="FILE",
        help="keep the scheduler's lease log in FILE (clause bus in "
             "FILE.bus); every completed query group is recorded there. "
             "Without --resume, FILE is started afresh: what it held "
             "is discarded",
    )
    evaluation.add_argument(
        "--resume", action="store_true",
        help="resume from the --checkpoint lease log: run only the "
             "query groups it holds no completion for",
    )
    evaluation.add_argument(
        "--inject", action="append", default=[], metavar="SITE:ACTION[:K=V,..]",
        help="deterministic fault injection (repeatable; see docs/ROBUSTNESS.md)",
    )
    evaluation.add_argument(
        "--group-size", type=int, default=0, metavar="N",
        help="split each unit's queries into groups of at most N for "
             "sub-unit stealing/resume (0 = whole units)",
    )
    evaluation.add_argument(
        "--heartbeat-interval", type=float, default=0.25, metavar="S",
        help="worker heartbeat period",
    )
    evaluation.add_argument(
        "--lease-ttl", type=float, default=5.0, metavar="S",
        help="a lease is stealable after its worker has been silent "
             "this long",
    )
    evaluation.add_argument(
        "--no-clause-bus", action="store_true",
        help="disable cross-worker clause sharing",
    )
    evaluation.add_argument(
        "--certify-out", metavar="FILE",
        help="write one verdict certificate per resolved query to FILE "
             "(validate with 'repro certify FILE')",
    )
    _add_obs(evaluation)
    evaluation.set_defaults(func=_cmd_eval)

    certify = commands.add_parser(
        "certify",
        help="independently re-validate a file of verdict certificates",
    )
    certify.add_argument("file", help="JSONL certificate file (--certify-out)")
    certify.set_defaults(func=_cmd_certify)

    selfcheck = commands.add_parser(
        "selfcheck",
        help="machine-check a client analysis's transfer/wp contracts "
             "on a program file",
    )
    selfcheck.add_argument(
        "analysis", choices=("typestate", "escape", "provenance")
    )
    selfcheck.add_argument("file")
    selfcheck.add_argument(
        "--automaton", choices=("file", "stress"), default="file",
        help="type-state property automaton (typestate only)",
    )
    selfcheck.add_argument(
        "--site", help="tracked allocation site (typestate only; default: first)"
    )
    selfcheck.add_argument(
        "--max-violations", type=int, default=10, metavar="N",
        help="stop after reporting N violations per check",
    )
    selfcheck.set_defaults(func=_cmd_selfcheck)

    info = commands.add_parser("info", help="print one benchmark's statistics")
    info.add_argument("name")
    info.set_defaults(func=_cmd_info)

    serve = commands.add_parser(
        "serve",
        help="run the resident analysis daemon (JSON over a unix socket; "
             "see docs/SERVING.md)",
    )
    serve.add_argument("--socket", required=True, metavar="PATH",
                       help="unix socket to listen on")
    serve.add_argument(
        "--store", metavar="FILE",
        help="persistent cross-run knowledge store (warm-starts repeat "
             "submissions, survives restarts)",
    )
    serve.add_argument("--k", type=_beam, default=5, metavar="K")
    serve.add_argument("--max-iterations", type=int, default=60)
    serve.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="per-request wall-clock ceiling (requests may tighten it, "
             "never exceed it)",
    )
    serve.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="per-request solver step ceiling",
    )
    serve.add_argument(
        "--trace-out", metavar="FILE",
        help="record a JSONL trace of every served request",
    )
    serve.add_argument(
        "--metrics-out", metavar="FILE",
        help="periodically write a Prometheus text-format snapshot of "
             "the metrics registry to FILE (atomic replace)",
    )
    serve.add_argument(
        "--metrics-interval", type=float, default=5.0, metavar="S",
        help="seconds between --metrics-out snapshots (default: 5)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="supervised worker processes for solve ops (crashes are "
             "isolated and workers respawned; 0 = solve inline in the "
             "daemon process; default: 1)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="admission queue bound; arrivals beyond it are shed with "
             "a retryable 'overloaded' error (default: 16)",
    )
    serve.add_argument(
        "--max-deadline-ms", type=float, default=None, metavar="MS",
        help="ceiling on client deadline_ms (requests may tighten it, "
             "never exceed it)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=None, metavar="S",
        help="per-request wall-clock limit in the worker pool; a "
             "request past it fails 'worker_timeout' and the worker "
             "is respawned",
    )
    serve.add_argument(
        "--max-request-bytes", type=int, default=8 * 1024 * 1024,
        metavar="N",
        help="largest accepted request line; longer ones are answered "
             "with an 'oversized' error (default: 8MiB)",
    )
    serve.add_argument(
        "--compact-ratio", type=float, default=None, metavar="R",
        help="compact the store when the superseded-entry ratio "
             "reaches R (0..1; default: never)",
    )
    serve.add_argument(
        "--compact-min-entries", type=int, default=16, metavar="N",
        help="skip periodic compaction below N on-file entries "
             "(default: 16)",
    )
    serve.add_argument(
        "--inject", action="append", metavar="SPEC",
        help="chaos-testing fault spec site:action[:k=v,...] "
             "(repeatable; see docs/ROBUSTNESS.md)",
    )
    serve.set_defaults(func=_cmd_serve)

    top = commands.add_parser(
        "top",
        help="live dashboard over a running daemon (QPS, tier mix, "
             "latency quantiles, in-flight request) or over a lease "
             "log (--leases: task states, steals, worker liveness)",
    )
    top.add_argument("--socket", metavar="PATH")
    top.add_argument(
        "--leases", metavar="FILE",
        help="watch a lease log (eval --checkpoint FILE) instead of a "
             "daemon",
    )
    top.add_argument(
        "--lease-ttl", type=float, default=5.0, metavar="S",
        help="TTL used to call a watched lease expired (default: 5)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between polls (default: 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render one snapshot frame and exit (non-interactive)",
    )
    top.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen",
    )
    top.set_defaults(func=_cmd_top)

    submit = commands.add_parser(
        "submit",
        help="submit work to a running 'repro serve' daemon",
    )
    submit.add_argument("--socket", required=True, metavar="PATH")
    submit.add_argument("file", nargs="?",
                        help="program file to solve (omit for --ping/--stats/"
                             "--shutdown/--benchmark)")
    submit.add_argument("--ping", action="store_true")
    submit.add_argument("--stats", action="store_true")
    submit.add_argument("--metrics", action="store_true",
                        help="print a Prometheus text scrape and exit")
    submit.add_argument("--shutdown", action="store_true")
    submit.add_argument("--benchmark", metavar="NAME",
                        help="solve a bundled suite benchmark on the daemon")
    submit.add_argument("--analysis", default="typestate",
                        help="analysis for --benchmark (default: typestate)")
    submit.add_argument(
        "--kind", choices=("typestate", "escape", "provenance"),
        default="typestate", help="analysis kind for a program file",
    )
    submit.add_argument("--query", help="observe label to check")
    submit.add_argument("--allowed", default="",
                        help="comma-separated allowed type-states/sites")
    submit.add_argument("--automaton", choices=("file", "stress"),
                        default="file")
    submit.add_argument("--site", help="tracked allocation site (typestate)")
    submit.add_argument("--var", help="variable (escape/provenance)")
    submit.add_argument("--max-seconds", type=float, default=None, metavar="S")
    submit.add_argument("--max-steps", type=int, default=None, metavar="N")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="client-side reply timeout in seconds")
    submit.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="client retries on transport failures and retryable "
             "daemon errors, same request id each attempt (default: 2)",
    )
    submit.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="shed the request server-side if it is still queued when "
             "this many milliseconds have passed",
    )
    submit.set_defaults(func=_cmd_submit)

    store = commands.add_parser(
        "store",
        help="inspect and maintain a knowledge store file offline",
    )
    store_commands = store.add_subparsers(dest="store_command",
                                          required=True)
    store_compact = store_commands.add_parser(
        "compact",
        help="rewrite the store keeping latest-wins survivors "
             "(atomic rename; crash-safe at any instant)",
    )
    store_compact.add_argument("file", help="knowledge store JSONL file")
    store_compact.set_defaults(func=_cmd_store)
    store_verify = store_commands.add_parser(
        "verify",
        help="check header version, record structure, and per-entry "
             "content checksums",
    )
    store_verify.add_argument("file", help="knowledge store JSONL file")
    store_verify.set_defaults(func=_cmd_store)
    store_stats = store_commands.add_parser(
        "stats",
        help="print size, live/superseded entry counts, and the "
             "superseded ratio",
    )
    store_stats.add_argument("file", help="knowledge store JSONL file")
    store_stats.set_defaults(func=_cmd_store)

    trace = commands.add_parser(
        "trace", help="validate, summarize, or replay a recorded JSONL trace"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    validate = trace_commands.add_parser(
        "validate", help="check a trace file against the event schema"
    )
    validate.add_argument("file")
    validate.set_defaults(func=_cmd_trace_validate)

    summarize = trace_commands.add_parser(
        "summarize",
        help="per-phase wall-clock breakdown (forward / backward / synthesis)",
    )
    summarize.add_argument(
        "files", nargs="+", metavar="FILE",
        help="trace file(s); multiple files are merged deterministically",
    )
    summarize.set_defaults(func=_cmd_trace_summarize)

    profile = trace_commands.add_parser(
        "profile",
        help="per-site self/total wall-clock flat profile",
    )
    profile.add_argument(
        "files", nargs="+", metavar="FILE",
        help="trace file(s); multiple files are merged deterministically",
    )
    profile.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N hottest sites",
    )
    profile.add_argument(
        "--by-trace", action="store_true",
        help="add a per-trace-id (per-request / per-unit) roll-up",
    )
    profile.set_defaults(func=_cmd_trace_profile)

    transcript = trace_commands.add_parser(
        "transcript",
        help="rebuild a Figure-1 style transcript from a detail trace",
    )
    transcript.add_argument("file")
    transcript.add_argument(
        "--query", help="which query to narrate (required for multi-query traces)"
    )
    transcript.set_defaults(func=_cmd_trace_transcript)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
