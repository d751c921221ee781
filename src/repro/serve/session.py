"""The resident analysis session.

One :class:`AnalysisSession` owns everything that used to die with the
process: prepared benchmark programs (the front-end pipeline is run
once per name), built client setups (and with them the compiled kernel
programs memoized on each client), one shared
:class:`~repro.core.tracer.ForwardRunCache`, and — when a
:class:`~repro.serve.store.KnowledgeStore` is attached — the
warm-start logic that seeds every new search from prior knowledge.

The session is the single execution layer under three frontends:

* the one-shot CLI solvers build their client through the session's
  builders and run :meth:`solve` (``--store`` attaches a store);
* the bench harness and the parallel executor use the session's
  program memos (:meth:`prepare` / :meth:`seed` / :meth:`instance`)
  instead of their former module-level caches;
* the ``repro serve`` daemon keeps one session resident and routes
  every request through it.

Warm-start protocol of :meth:`solve` (see also
:class:`~repro.core.tracer.WarmStart`):

1. exact store hit (same program digest, config, query set) — the
   recorded rounds replay; verdicts, certificates, and journal records
   are bit-identical to a cold search and no forward fixpoint runs;
   a stale entry (the integrity checks fail) is forgotten and the
   search re-runs cold — a bad store can cost time, never answers;
2. seed hit (same submission source, changed digest — an edited
   program) — each recorded witness trace is replayed against the
   *current* program (:func:`~repro.core.selfcheck.check_soundness_on_trace`)
   and its failure clauses re-derived from the current semantics
   (:func:`~repro.core.meta.backward_trace`); only clauses justified
   by a replaying witness seed the new search;
3. otherwise the search runs cold; either way the finished search is
   recorded back to the store.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.meta import backward_trace
from repro.core.selfcheck import check_soundness_on_trace
from repro.core.stats import QueryRecord, QueryStatus
from repro.core.tracer import (
    ForwardRunCache,
    TracerConfig,
    WarmStart,
    run_query_group,
)
from repro.core.viability import ViabilityStore
from repro.escape.client import EscapeClient, EscapeQuery
from repro.escape.domain import EscSchema
from repro.lang.parser import parse_program
from repro.lang.universe import collect_universe
from repro.obs import trace as obs
from repro.provenance.client import ProvenanceClient, ProvenanceQuery
from repro.robust.certify import CertificateStore
from repro.robust.journal import (
    JournalMismatch,
    RoundCollector,
    clause_to_jsonable,
    trace_from_jsonable,
)
from repro.serve.store import KnowledgeStore, config_key, program_digest
from repro.typestate.automaton import file_automaton, stress_automaton
from repro.typestate.client import TypestateClient, TypestateQuery

__all__ = [
    "AnalysisSession",
    "SessionResult",
    "describe_client",
    "process_session",
]


def describe_client(client) -> dict:
    """A JSON-able fingerprint of everything besides the program that
    determines a client's search: the analysis kind, the parameter
    universe, and the client-specific configuration (automaton,
    tracked site, schemas).  Participates in the store digest — two
    submissions warm-start off each other only when their fingerprints
    agree."""
    analysis = client.analysis
    space = analysis.param_space
    universe = getattr(space, "universe", None)
    if universe is None:
        universe = getattr(space, "keys", None)
    info: dict = {
        "kind": type(client).__name__,
        "universe": sorted(universe) if universe is not None else None,
    }
    automaton = getattr(analysis, "automaton", None)
    if automaton is not None:
        info["automaton"] = {
            "name": automaton.name,
            "states": sorted(automaton.states),
            "methods": sorted(automaton.methods),
            "init": automaton.init,
        }
        info["tracked_site"] = getattr(analysis, "tracked_site", None)
        event_labels = getattr(analysis, "event_labels", None)
        info["event_labels"] = (
            sorted(event_labels) if event_labels is not None else None
        )
    schema = getattr(client, "schema", None)
    if schema is not None:
        for attr in ("locals", "fields", "variables"):
            values = getattr(schema, attr, None)
            if values is not None:
                info[f"schema_{attr}"] = sorted(values)
    return info


@dataclass
class SessionResult:
    """What one :meth:`AnalysisSession.solve` produced."""

    #: Per-query records, keyed by the query objects passed in.
    records: Dict[object, QueryRecord]
    #: The caller's certificate store, populated (``None`` unless one
    #: was passed — the session's internal certification for the
    #: knowledge store is not exposed here).
    certificates: Optional[CertificateStore]
    #: How the search started: ``"cold"``, ``"replay"`` (exact store
    #: hit, rounds re-enacted), ``"clauses"`` (seed hit, validated
    #: clauses), or ``"stale"`` (a replay attempt failed its integrity
    #: checks and the search re-ran cold).
    mode: str
    #: Store key of the submission (``None`` without a store).
    digest: Optional[str]
    #: True when the store answered (replay tier).
    store_hit: bool
    #: The executed (or replayed) round records, when collected.
    rounds: List[dict] = field(default_factory=list)


class AnalysisSession:
    """Resident state shared across solves; see the module doc."""

    def __init__(
        self,
        store: Optional[KnowledgeStore] = None,
        forward_cache_size: int = 256,
    ):
        self.store = store
        self._forward_cache_size = forward_cache_size
        self._forward_cache: Optional[ForwardRunCache] = None
        #: Standard suite benchmarks by name (the prepare memo, and the
        #: cross-token fallback the parallel executor relies on).
        self._benches: Dict[str, object] = {}
        #: Seeded instances by (name, token) — custom programs too.
        self._instances: Dict[Tuple[str, int], object] = {}
        self._seed_tokens = itertools.count()
        #: Built (client, queries) setups per standard (bench, analysis).
        self._setups: Dict[Tuple[str, str], list] = {}
        #: Built text-program clients by (kind, text, params).
        self._clients: Dict[Tuple, tuple] = {}
        #: ``(describe_client, program_digest)`` per client object.  AST
        #: nodes are frozen and a client's parameter space, automaton,
        #: tracked site and schema are fixed when it is built, so the
        #: store key cannot change while the client lives; the entry
        #: dies with it.
        self._store_keys = weakref.WeakKeyDictionary()
        #: Digests this session has already opened (for the
        #: ``session_opened`` lifecycle event).
        self._digests: set = set()
        self.stats: Dict[str, int] = {
            "solves": 0,
            "programs_prepared": 0,
            "programs_opened": 0,
            "warm_replays": 0,
            "warm_clause_runs": 0,
            "warm_seeded_clauses": 0,
            "warm_dropped_clauses": 0,
            "stale_entries": 0,
        }

    # -- resident caches ------------------------------------------------------

    @property
    def forward_cache(self) -> ForwardRunCache:
        """The session-wide forward-run cache, created lazily so it
        registers its counters with whatever metrics registry is
        ambient at first use."""
        if self._forward_cache is None:
            self._forward_cache = ForwardRunCache(self._forward_cache_size)
        return self._forward_cache

    def prepare(self, name: str, front=None):
        """A prepared :class:`~repro.bench.harness.BenchmarkInstance`,
        memoized per suite name (custom ``front`` programs are prepared
        fresh — their identity is the object, not the name)."""
        from repro.bench.harness import prepare_uncached

        if front is not None:
            return prepare_uncached(name, front)
        bench = self._benches.get(name)
        if bench is None:
            bench = prepare_uncached(name)
            self._benches[name] = bench
            self.stats["programs_prepared"] += 1
        return bench

    def seed(self, bench) -> int:
        """Register an already-prepared instance under a fresh token
        (the parallel executor seeds the parent's instance before the
        pool forks, so workers inherit it)."""
        token = next(self._seed_tokens)
        self._instances[(bench.name, token)] = bench
        if bench.standard:
            self._benches.setdefault(bench.name, bench)
        return token

    def instance(self, name: str, token: int, front=None):
        """The instance a work unit names: the seeded one when this
        process inherited it, the standard memo as a cross-token
        fallback (suite programs are deterministic functions of their
        name), or a fresh preparation."""
        from repro.bench.harness import prepare_uncached

        bench = self._instances.get((name, token))
        if bench is None and front is None:
            bench = self._benches.get(name)
            if bench is not None:
                self._instances[(name, token)] = bench
        if bench is None:
            bench = prepare_uncached(name, front)
            self._instances[(name, token)] = bench
            if front is None and bench.standard:
                self._benches.setdefault(name, bench)
        return bench

    def client_setups(self, bench, analysis: str) -> list:
        """The ``(client, queries)`` setups of one analysis, resident
        for standard benchmarks so compiled kernels, wp memos, and
        cache keys survive across requests."""
        from repro.bench.harness import analysis_setups

        if not getattr(bench, "standard", False):
            return analysis_setups(bench, analysis)
        key = (bench.name, analysis)
        setups = self._setups.get(key)
        if setups is None:
            setups = analysis_setups(bench, analysis)
            self._setups[key] = setups
        return setups

    # -- text-program client builders (shared by CLI and server) --------------

    def typestate_client(
        self,
        text: str,
        automaton_name: str = "file",
        site: Optional[str] = None,
    ):
        """Build (or reuse) the type-state client of one program text;
        returns ``(client, universe, automaton, resolved_site)``.
        Raises ``ValueError`` on an unusable program."""
        key = ("typestate", text, automaton_name, site)
        built = self._clients.get(key)
        if built is not None:
            return built
        program, universe = _parse(text)
        if automaton_name == "file":
            automaton = file_automaton()
        else:
            if not universe.methods:
                raise ValueError(
                    "stress automaton needs at least one method call "
                    "in the program"
                )
            automaton = stress_automaton(sorted(universe.methods))
        resolved = site or (
            sorted(universe.sites)[0] if universe.sites else None
        )
        if resolved is None:
            raise ValueError(
                "the program allocates nothing; pass a site explicitly"
            )
        client = TypestateClient(
            program, automaton, resolved, universe.variables
        )
        built = (client, universe, automaton, resolved)
        self._clients[key] = built
        return built

    def escape_client(self, text: str):
        """Build (or reuse) the thread-escape client of one program
        text; returns ``(client, universe)``."""
        key = ("escape", text)
        built = self._clients.get(key)
        if built is not None:
            return built
        program, universe = _parse(text)
        schema = EscSchema(sorted(universe.variables), sorted(universe.fields))
        client = EscapeClient(program, schema, universe.sites)
        built = (client, universe)
        self._clients[key] = built
        return built

    def provenance_client(self, text: str):
        """Build (or reuse) the provenance client of one program text;
        returns ``(client, universe)``."""
        key = ("provenance", text)
        built = self._clients.get(key)
        if built is not None:
            return built
        program, universe = _parse(text)
        client = ProvenanceClient(
            program, PtSchemaLazy(universe.variables), universe.sites
        )
        built = (client, universe)
        self._clients[key] = built
        return built

    # -- the solve path -------------------------------------------------------

    def solve(
        self,
        client,
        queries: Sequence[object],
        config: TracerConfig = TracerConfig(),
        *,
        journal=None,
        certificates: Optional[CertificateStore] = None,
        source: Optional[str] = None,
    ) -> SessionResult:
        """Run grouped TRACER through the session: warm-start from the
        store when possible, record the finished search back to it, and
        share the resident forward-run cache either way.

        ``journal`` is the caller's :class:`SearchJournal` (fresh or
        resuming).  A *resuming* journal takes precedence over the
        store — its rounds already are this search's knowledge — and
        the resumed run is not re-recorded.  With a fresh journal, a
        warm replay writes the replayed rounds through, so the journal
        file is bit-identical to a cold run's.
        """
        queries = list(queries)
        query_ids = [str(q) for q in queries]
        self.stats["solves"] += 1
        resuming = journal is not None and getattr(journal, "replaying", False)
        store = self.store
        digest: Optional[str] = None
        ckey = config_key(config)
        warm: Optional[WarmStart] = None
        entry: Optional[dict] = None
        mode = "cold"
        if store is not None and not resuming:
            info, digest = self._store_key(client)
            if digest not in self._digests:
                self._digests.add(digest)
                self.stats["programs_opened"] += 1
                if obs.active():
                    obs.event(
                        "session_opened",
                        digest=digest[:12],
                        kind=info.get("kind"),
                        source=source,
                        queries=len(queries),
                    )
            entry = store.lookup(digest, ckey, query_ids)
            if entry is not None:
                warm = _replay_warm(
                    entry,
                    store.recorded_rounds(entry),
                    certified=certificates is not None,
                )
                mode = "replay"
            else:
                seed = store.lookup_seed(source, info.get("kind"))
                if seed is not None and seed.get("digest") != digest:
                    clauses, kept, dropped = self._validated_seed(
                        client, queries, seed, config
                    )
                    self.stats["warm_seeded_clauses"] += kept
                    self.stats["warm_dropped_clauses"] += dropped
                    if clauses:
                        warm = WarmStart(clauses=clauses)
                        mode = "clauses"
                        self.stats["warm_clause_runs"] += 1
        recording = store is not None and not resuming

        def run(active_warm, sink, certs):
            return run_query_group(
                client,
                queries,
                config,
                forward_cache=self.forward_cache,
                journal=(sink if sink is not None else journal),
                certificates=certs,
                warm_start=active_warm,
            )

        if mode == "replay":
            # Replay attempt: collect rounds and certificates privately,
            # so a stale entry cannot leave half a search in the
            # caller's journal or certificate store; on success both are
            # written through afterwards.
            private = (
                CertificateStore() if certificates is not None else None
            )
            collector = RoundCollector()
            try:
                records = run(warm, collector, private)
            except JournalMismatch:
                store.forget(entry)
                self.stats["stale_entries"] += 1
                warm, entry, mode = None, None, "stale"
            else:
                if journal is not None:
                    journal.begin(query_ids)
                    for rec in collector.rounds:
                        journal.record_round(rec)
                if private is not None:
                    for cert in private.certificates:
                        certificates.add(cert)
                self.stats["warm_replays"] += 1
                return SessionResult(
                    records=records,
                    certificates=certificates,
                    mode=mode,
                    digest=digest,
                    store_hit=True,
                    rounds=collector.rounds,
                )
        # The caller's certificate store doubles as the recording
        # source; without one, a private store still collects the
        # annotation digests and witnesses the knowledge store needs.
        certs = certificates
        if certs is None and recording:
            certs = CertificateStore()
        collector = RoundCollector(inner=journal) if recording else None
        records = run(warm, collector, certs)
        if recording:
            self._record(
                digest, source, client, ckey, query_ids, collector, certs
            )
        return SessionResult(
            records=records,
            certificates=certificates,
            mode=mode,
            digest=digest,
            store_hit=False,
            rounds=collector.rounds if collector is not None else [],
        )

    def solve_benchmark(
        self,
        name: str,
        analysis: str,
        config: Optional[TracerConfig] = None,
        certificates: Optional[CertificateStore] = None,
    ) -> List[Tuple[int, list, SessionResult]]:
        """Run every unit of one benchmark/analysis through the
        session; returns ``(unit index, queries, SessionResult)``
        triples in serial-harness order."""
        from repro.bench.harness import DEFAULT_CONFIG

        config = config if config is not None else DEFAULT_CONFIG
        bench = self.prepare(name)
        out: List[Tuple[int, list, SessionResult]] = []
        for index, (client, unit_queries) in enumerate(
            self.client_setups(bench, analysis)
        ):
            if not unit_queries:
                continue
            result = self.solve(
                client,
                unit_queries,
                config,
                certificates=certificates,
                source=f"bench:{name}:{analysis}:{index}",
            )
            out.append((index, list(unit_queries), result))
        return out

    # -- internals ------------------------------------------------------------

    def _store_key(self, client) -> Tuple[dict, str]:
        """The client's fingerprint and store digest, computed once per
        client object (the canonical program text is rendered once)."""
        key = self._store_keys.get(client)
        if key is None:
            info = describe_client(client)
            key = (info, program_digest(client.program, info))
            self._store_keys[client] = key
        return key

    def _validated_seed(
        self, client, queries, seed: dict, config: TracerConfig
    ) -> Tuple[Dict[str, list], int, int]:
        """Validate a cross-digest seed entry witness by witness: the
        recorded counterexample trace must replay as a genuine
        counterexample on the *current* program, and the clauses fed
        to the new search are re-derived from the current semantics —
        never copied from the old program.  Returns ``(clauses by
        query id, witnesses kept, witnesses dropped)``."""
        analysis = client.analysis
        meta = client.meta
        d_init = analysis.initial_state()
        bottom = analysis.param_space.bottom()
        by_id = {str(q): q for q in queries}
        out: Dict[str, list] = {}
        kept = dropped = 0
        for qid, witnesses in (seed.get("witnesses") or {}).items():
            query = by_id.get(qid)
            if query is None:
                continue
            clauses: list = []
            for witness in witnesses:
                try:
                    trace = trace_from_jsonable(witness.get("trace") or [])
                    refuted = frozenset(witness.get("abstraction") or ())
                    fail = client.fail_condition(query)
                    violations = check_soundness_on_trace(
                        analysis,
                        meta,
                        trace,
                        refuted,
                        d_init,
                        fail,
                        other_params=(bottom,),
                        k=witness.get("k"),
                        max_cubes=config.max_cubes,
                    )
                    if violations:
                        dropped += 1
                        continue
                    derived = backward_trace(
                        meta,
                        analysis,
                        trace,
                        refuted,
                        d_init,
                        fail,
                        k=witness.get("k"),
                        max_cubes=config.max_cubes,
                    )
                    probe = ViabilityStore(meta.theory, d_init)
                    added = probe.add_failure_condition(derived.condition)
                except Exception:
                    # An unreplayable witness (commands or names gone
                    # from the edited program) carries no knowledge.
                    dropped += 1
                    continue
                kept += 1
                clauses.extend(clause_to_jsonable(c) for c in added)
            if clauses:
                out[qid] = clauses
        return out, kept, dropped

    def _record(
        self, digest, source, client, ckey, query_ids, collector, certs
    ) -> None:
        by_query = certs.by_query()
        results: Dict[str, dict] = {}
        witnesses: Dict[str, list] = {}
        for qid in query_ids:
            cert = by_query.get(qid)
            if cert is None:
                continue
            results[qid] = {
                "verdict": cert["verdict"],
                "abstraction": cert["abstraction"],
                "cost": cert["abstraction_cost"],
                "iterations": cert["iterations"],
                "annotation_digest": cert["annotation_digest"],
            }
            witnesses[qid] = cert["witnesses"]
        self.store.record(
            digest,
            source,
            self._store_key(client)[0],
            ckey,
            query_ids,
            collector.rounds,
            results,
            witnesses,
        )


def _replay_warm(entry: dict, rounds, certified: bool) -> WarmStart:
    """The replay-tier warm start of a store ``entry`` over its kept
    ``rounds``, with the recorded annotation digests — which only
    certificates read — when the replay is ``certified``."""
    digests: Dict[str, Tuple[Tuple[str, ...], str]] = {}
    results = (entry.get("results") or {}) if certified else {}
    for qid, result in results.items():
        if (
            result.get("verdict") == QueryStatus.PROVEN.value
            and result.get("abstraction") is not None
            and result.get("annotation_digest")
        ):
            digests[qid] = (
                tuple(result["abstraction"]),
                result["annotation_digest"],
            )
    return WarmStart(
        rounds=rounds,
        digests=digests,
        queries=list(entry.get("queries") or []),
    )


def _parse(text: str):
    program = parse_program(text)
    return program, collect_universe(program)


def PtSchemaLazy(variables):
    from repro.provenance.domain import PtSchema

    return PtSchema(variables)


#: The process-wide session the bench layers share (workers inherit it
#: through fork, exactly like the former module-level memos in
#: ``bench/parallel.py``).  It has no knowledge store — stores are
#: opted into per frontend (``--store``, ``repro serve --store``).
_PROCESS_SESSION: Optional[AnalysisSession] = None


def process_session() -> AnalysisSession:
    global _PROCESS_SESSION
    if _PROCESS_SESSION is None:
        _PROCESS_SESSION = AnalysisSession()
    return _PROCESS_SESSION


# Re-exported for the server's query construction.
QUERY_TYPES = {
    "typestate": TypestateQuery,
    "escape": EscapeQuery,
    "provenance": ProvenanceQuery,
}
