"""TRACER — the iterative forward-backward analysis (Algorithm 1).

The single-query algorithm is the paper's Algorithm 1:

1. pick a minimum abstraction ``p`` from the viable set (MinCostSAT
   over the accumulated clauses; initially everything is viable and
   the bottom abstraction is picked);
2. run the forward analysis instantiated with ``p``; if the query
   holds, return ``p`` — it is a *minimum* abstraction proving the
   query;
3. otherwise take an abstract counterexample trace, run the backward
   meta-analysis to get a sufficient condition for failure, and remove
   the abstractions it denotes from the viable set;
4. if the viable set becomes empty, the query is *impossible* — no
   abstraction in the family proves it.

The multi-query driver implements the grouping optimisation of
Section 6: queries whose sets of unviable abstractions coincide are
kept in one group and share forward runs; a group splits when the
meta-analysis derives different failure clauses for its members.

Forward runs dominate the cost of the loop (each is a full disjunctive
collecting run over the program), and after a group splits its
descendants frequently re-select an abstraction a sibling has already
run.  :class:`ForwardRunCache` memoises forward fixpoints per
``(client, abstraction)`` so those re-selections are served from
memory; the cache is bounded (LRU) and its hits are recorded per query
in :class:`~repro.core.stats.QueryRecord`.
"""

from __future__ import annotations

import inspect
import itertools
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.formula import Formula, FormulaExplosion, evaluate
from repro.core.meta import (
    MAX_CUBES,
    BackwardMetaAnalysis,
    backward_trace,
    forward_states,
)
from repro.core.parametric import ParametricAnalysis
from repro.core.stats import QueryRecord, QueryStatus
from repro.core.viability import ParamTheory, ViabilityStore
from repro.lang.ast import Trace
from repro.lang.pretty import pretty_command
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs
from repro.robust import budget as robust_budget
from repro.robust import faults as robust_faults
from repro.robust.budget import Budget, BudgetExceeded
from repro.robust.certify import (
    CertificateStore,
    QueryEvidence,
    annotation_digest,
    build_certificate,
)
from repro.robust.clausebus import ClauseFeedMismatch
from repro.robust.degrade import run_with_degradation
from repro.robust.journal import (
    JournalMismatch,
    SearchJournal,
    clause_from_jsonable,
    clause_to_jsonable,
    trace_to_jsonable,
)

Query = Hashable

#: Source of per-client cache tokens; see :meth:`TracerClient.cache_key`.
_client_tokens = itertools.count()


class TracerClient:
    """Everything TRACER needs to know about a client analysis.

    A client binds a program, a parametric forward analysis, a backward
    meta-analysis, and a query vocabulary together.  Concrete clients
    implement :meth:`fail_condition` and :meth:`run_forward`; the
    default :meth:`counterexamples` then works for any query type with
    a ``label`` attribute naming the ``Observe`` point it guards.
    """

    analysis: ParametricAnalysis
    meta: BackwardMetaAnalysis

    def fail_condition(self, query: Query) -> Formula:
        """``not(q)`` — the condition under which ``query`` fails."""
        raise NotImplementedError

    def run_forward(self, p: FrozenSet[str]):
        """One forward fixpoint of the ``p``-instantiated analysis,
        exposing ``states_before_observe(label)`` and ``trace_to``."""
        raise NotImplementedError

    def _kernel_codec(self):
        """The bitset :class:`~repro.dataflow.bitset.StateCodec` for the
        compiled forward kernel, or ``None`` when the client has no
        bitset encoding (``use_engine("compiled")`` then stays on the
        interpreted engine).  Clients with finite state universes
        override this; see :mod:`repro.core.kernel`."""
        return None

    #: The compiled engine's :class:`~repro.core.kernel.KernelStore`,
    #: built on first use; a client family shares its first member's.
    _kernel_store = None

    def _shared_kernel_store(self):
        """This client's kernel store (codec plus lowered steps),
        created from :meth:`_kernel_codec` on first use, or ``None``
        without a codec."""
        store = self._kernel_store
        if store is None:
            codec = self._kernel_codec()
            if codec is not None:
                from repro.core.kernel import KernelStore

                store = self._kernel_store = KernelStore(codec)
        return store

    def share_kernel_store(self, sibling: "TracerClient") -> None:
        """Adopt ``sibling``'s kernel store, so the two clients share a
        codec and lower each step once between them.  Sound when both
        run over one CFG and their semantics share one compiled store
        (the ``table_key`` contract), as a client family's do."""
        self._kernel_store = sibling._shared_kernel_store()

    def use_engine(self, mode: str) -> str:
        """Select the forward engine: ``"compiled"`` (the bitset kernel
        of :mod:`repro.core.kernel` wrapping the client's own engine,
        the :class:`TracerConfig` default) or ``"interpreted"`` (the
        client's own engine, the reference the kernel is checked
        against).

        Returns the mode actually in effect — a client without a
        kernel codec, or whose engine is not the intraprocedural
        collecting engine, silently stays interpreted (the two engines
        are bit-identical, so this is a pure performance decision).
        The kernel engine instance is memoized on the client, keeping
        its tables warm across switches."""
        if mode not in ("interpreted", "compiled"):
            raise ValueError(f"unknown engine: {mode!r}")
        base = getattr(self, "_base_engine", None)
        if base is None:
            base = getattr(self, "engine", None)
            if base is None:
                return "interpreted"
            self._base_engine = base
        if mode == "compiled":
            kernel = getattr(self, "_kernel_engine", None)
            if kernel is None:
                store = None
                if getattr(base, "cfg", None) is not None:
                    store = self._shared_kernel_store()
                if store is None:
                    kernel = False
                else:
                    from repro.core.kernel import KernelEngine

                    kernel = KernelEngine(base, store, self.analysis.semantics)
                self._kernel_engine = kernel
            if kernel:
                self.engine = kernel
                return "compiled"
        self.engine = base
        return "interpreted"

    def cache_key(self) -> Hashable:
        """A key identifying this client's forward semantics in a
        :class:`ForwardRunCache`.

        Two clients may share a key only if ``run_forward`` agrees on
        every abstraction.  The default is a token unique per client
        instance, which is always sound; clients may prepend a
        descriptive prefix (see the bundled clients)."""
        token = getattr(self, "_cache_token", None)
        if token is None:
            token = self._cache_token = next(_client_tokens)
        return token

    def selfcheck_space(self):
        """Enumeration universe for the selfcheck validators
        (:mod:`repro.core.selfcheck`): ``(primitives, pairs)`` where
        ``pairs`` is a sequence of ``(p, d)`` samples.

        The bundled clients return the exhaustive product for small
        universes (making :func:`~repro.core.selfcheck.check_wp` a
        proof for the universe) and a bounded deterministic sample
        beyond that.  Optional — only ``repro selfcheck`` needs it."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement selfcheck_space()"
        )

    def counterexamples(
        self,
        queries: Sequence[Query],
        p: FrozenSet[str],
        cache: "Optional[ForwardRunCache]" = None,
    ) -> Dict[Query, Optional[Trace]]:
        """Run the ``p``-instantiated forward analysis once and report,
        for every query, ``None`` (proved) or a counterexample trace —
        a sequence of atomic commands from program entry to the query
        point ending in a state satisfying ``fail_condition``.

        When ``cache`` is given, the forward fixpoint is fetched
        through it (and stored on a miss)."""
        with obs.span("forward_run", phase="forward") as forward_span:
            robust_faults.inject("forward_run")
            if cache is not None:
                misses_before = cache.misses
                result = cache.fetch(self, p)
                forward_span.set(cached=cache.misses == misses_before)
            else:
                result = self.run_forward(p)
        theory = self.meta.theory
        out: Dict[Query, Optional[Trace]] = {}
        with obs.span("extract", phase="forward") as extract_span:
            robust_faults.inject("extract")
            for query in queries:
                fail = self.fail_condition(query)
                witness: Optional[Trace] = None
                for node, state in result.states_before_observe(query.label):
                    if evaluate(fail, theory, p, state):
                        witness = result.trace_to(node, state)
                        break
                out[query] = witness
            extract_span.set(
                witnesses=sum(1 for w in out.values() if w is not None)
            )
        return out


class ForwardRunCache:
    """Bounded LRU of forward fixpoint results.

    Keys are ``(client.cache_key(), abstraction)``; one cache may be
    shared by many clients (the bench harness shares one per benchmark
    evaluation, bounding total retained state).  Forward results are
    immutable once computed, so sharing a cached result between query
    groups is safe.
    """

    def __init__(self, max_entries: int = 64):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        # The cache owns its counters; readers (harness, export,
        # tables) pull totals from the registry, never keep copies.
        obs_metrics.register_cache("forward_run", self)

    def fetch(self, client: TracerClient, p: FrozenSet[str]):
        """Return the forward result for ``(client, p)``, running the
        client's forward analysis on a miss."""
        key = (client.cache_key(), p)
        entries = self._entries
        result = entries.get(key)
        if result is not None:
            entries.move_to_end(key)
            self.hits += 1
            return result
        self.misses += 1
        result = client.run_forward(p)
        entries[key] = result
        if len(entries) > self.max_entries:
            entries.popitem(last=False)
        return result

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class TracerConfig:
    """Knobs of the search.

    ``k`` is the beam width of the meta-analysis under-approximation
    (``None`` disables the beam entirely); the paper uses ``k = 5`` for
    the evaluation and studies ``k`` in Figure 13.  ``max_iterations``
    and ``max_seconds`` bound the per-query effort; exceeding either
    marks the query ``EXHAUSTED`` (the paper's unresolved bucket).
    ``forward_cache_size`` bounds the per-driver forward-run cache
    (entries, LRU); ``0`` or ``None`` disables forward-run caching.

    Robustness knobs (see ``docs/ROBUSTNESS.md``):

    * ``max_seconds`` is enforced *cooperatively*: a budget installed
      around each round trips inside the forward worklist and each
      backward step (every ``budget_check_every`` ticks), so a single
      runaway fixpoint resolves to ``EXHAUSTED`` near the deadline
      instead of blowing the contract;
    * ``max_steps`` is the deterministic analogue — a per-query budget
      of transfer-function applications / backward commands;
    * on :class:`~repro.core.formula.FormulaExplosion` the backward
      pass retries with the beam halved down to ``k_min`` before the
      query is declared ``EXHAUSTED`` (each shrink emits a ``degraded``
      trace event);
    * ``strict=False`` contains :class:`ProgressError` and unexpected
      client exceptions to the failing query (``degraded`` event +
      ``EXHAUSTED``; the rest of the group survives); ``strict=True``
      re-raises them, which is the right default for debugging a
      client.
    """

    k: Optional[int] = 5
    max_iterations: int = 60
    max_seconds: Optional[float] = None
    max_cubes: Optional[int] = MAX_CUBES
    forward_cache_size: Optional[int] = 64
    max_steps: Optional[int] = None
    k_min: int = 1
    strict: bool = True
    budget_check_every: int = 64
    #: Forward engine: ``"compiled"`` runs the bitset kernel (clients
    #: without kernel support silently stay interpreted);
    #: ``"interpreted"`` runs the client's own engine, the reference the
    #: kernel is checked against.  Results are bit-identical.
    engine: str = "compiled"


class ProgressError(RuntimeError):
    """The meta-analysis failed to eliminate the current abstraction —
    a soundness bug (Theorem 3.1 guarantees elimination)."""


class WarmStart:
    """Prior knowledge seeding a new search — the PR 5 journal replay
    generalised from "resume one crashed search" to "seed any new
    search" (see :mod:`repro.serve.store` for where the knowledge
    comes from).

    Two tiers, mutually exclusive:

    * **replay** (``rounds`` non-empty): the recorded CEGAR rounds of a
      completed search over the *same* program digest, query set, and
      config are re-enacted through the journal replay machinery —
      clauses feed back into the viability stores, counters and
      charges are restored, refuted abstractions are never re-run, and
      every round is integrity-checked against the evolving store
      (:class:`~repro.robust.journal.JournalMismatch` on divergence).
      Verdicts, certificates, and journal records are bit-identical to
      a cold search; no forward fixpoint runs at all (``digests`` lets
      the certificate path reuse the recorded annotation digests
      instead of re-running the proving fixpoint).

    * **clauses** (``clauses`` non-empty): per-query clause sets from a
      prior — possibly different — search seed the initial viability
      stores.  Queries are pre-partitioned by seeded clause signature
      (a clause learned for one query must never constrain a
      different query's store, or minimality breaks), and each clause
      is validated against the current parameter space by
      :meth:`~repro.core.viability.ViabilityStore.warm_start` before
      it constrains anything.  Verdicts and minimal abstractions are
      preserved when the seeded clauses are sound for this program;
      iteration counts shrink.

    ``queries`` is the query-id list the knowledge was recorded for;
    :meth:`begin` rejects a mismatched search the same way a resumed
    journal would.
    """

    def __init__(
        self,
        rounds: Sequence[dict] = (),
        clauses: Optional[Dict[str, Sequence]] = None,
        digests: Optional[Dict[str, Tuple[Tuple[str, ...], str]]] = None,
        queries: Optional[Sequence[str]] = None,
    ):
        self.rounds = list(rounds)
        self.clauses = dict(clauses or {})
        self.digests = dict(digests or {})
        self.queries = list(queries) if queries is not None else None
        self.replayed_rounds = 0
        self.seeded_clauses = 0
        self.dropped_clauses = 0
        self._cursor = 0
        self._replaying = bool(self.rounds)

    @property
    def replaying(self) -> bool:
        return self._replaying

    def begin(self, query_ids: Sequence[str]) -> None:
        if self.queries is not None and list(query_ids) != self.queries:
            raise JournalMismatch(
                f"warm-start knowledge was recorded for queries "
                f"{self.queries!r}, not {list(query_ids)!r}"
            )

    def replay_round(self, query_ids: Sequence[str]) -> Optional[dict]:
        """Mirror of :meth:`SearchJournal.replay_round`: the next
        recorded round if it matches the group about to run; ``None``
        once the knowledge is exhausted (the search goes live)."""
        if not self._replaying:
            return None
        if self._cursor >= len(self.rounds):
            self._replaying = False
            return None
        record = self.rounds[self._cursor]
        if record.get("queries") != list(query_ids):
            raise JournalMismatch(
                f"warm-start round {record.get('round')} was recorded for "
                f"group {record.get('queries')!r}, but the search reached "
                f"group {list(query_ids)!r}"
            )
        self._cursor += 1
        self.replayed_rounds += 1
        return record

    def stored_digest(self, query_id: str, p: FrozenSet[str]) -> Optional[str]:
        """The recorded annotation digest for ``query_id``, provided
        the recorded proving abstraction matches ``p`` — replay-tier
        certificates reuse it instead of re-running the proving
        forward fixpoint (the digest is a deterministic function of
        ``(program, p)``, so reuse is exact, not approximate)."""
        entry = self.digests.get(query_id)
        if entry is None:
            return None
        abstraction, digest = entry
        if tuple(sorted(p)) != tuple(abstraction):
            return None
        return digest


@dataclass
class _Group:
    """One group of queries sharing an identical unviable set."""

    store: ViabilityStore
    queries: List[Query]


class Tracer:
    """Single-query and grouped multi-query TRACER driver."""

    def __init__(
        self,
        client: TracerClient,
        config: TracerConfig = TracerConfig(),
        forward_cache: Optional[ForwardRunCache] = None,
        journal: Optional[SearchJournal] = None,
        certificates: Optional[CertificateStore] = None,
        warm_start: Optional[WarmStart] = None,
        clause_feed=None,
    ):
        self.client = client
        self.config = config
        self.forward_cache = forward_cache
        self.journal = journal
        self.certificates = certificates
        self.warm_start = warm_start
        self.clause_feed = clause_feed

    def solve(self, query: Query) -> QueryRecord:
        """Resolve a single query (Algorithm 1)."""
        return self.solve_all([query])[query]

    def solve_all(self, queries: Sequence[Query]) -> Dict[Query, QueryRecord]:
        """Resolve many queries with the Section 6 grouping optimisation."""
        return run_query_group(
            self.client,
            queries,
            self.config,
            forward_cache=self.forward_cache,
            journal=self.journal,
            certificates=self.certificates,
            warm_start=self.warm_start,
            clause_feed=self.clause_feed,
        )


def _cache_aware(client: TracerClient) -> bool:
    """Whether the client's ``counterexamples`` accepts a ``cache``
    argument (clients predating the forward-run cache may not).

    The two-argument signature is deprecated: it silently opts the
    client out of forward-run caching.  Accept a ``cache`` keyword (and
    ignore it if you must) instead."""
    try:
        aware = "cache" in inspect.signature(client.counterexamples).parameters
    except (TypeError, ValueError):
        aware = False
    if not aware:
        warnings.warn(
            "TracerClient.counterexamples without a 'cache' parameter is "
            "deprecated; accept counterexamples(queries, p, cache=None) to "
            "enable forward-run caching",
            DeprecationWarning,
            stacklevel=3,
        )
    return aware


def run_query_group(
    client: TracerClient,
    queries: Sequence[Query],
    config: TracerConfig = TracerConfig(),
    forward_cache: Optional[ForwardRunCache] = None,
    clock: Callable[[], float] = time.perf_counter,
    journal: Optional[SearchJournal] = None,
    certificates: Optional[CertificateStore] = None,
    warm_start: Optional[WarmStart] = None,
    clause_feed=None,
) -> Dict[Query, QueryRecord]:
    """The grouped TRACER driver; see :class:`Tracer`.

    ``forward_cache`` overrides the driver-local cache (pass one to
    share fixpoints across several drivers); by default a fresh cache
    of ``config.forward_cache_size`` entries is used.  ``clock`` is the
    time source for per-query accounting (injectable for tests).

    ``journal`` records one crash-safe JSONL line per executed round
    (see :class:`~repro.robust.journal.SearchJournal`); opened with
    ``resume=True`` its recorded rounds are *replayed* before the
    search goes live — clauses feed back into the viability stores, no
    already-refuted abstraction is re-run, and counters/charges are
    restored from the record, so the resumed verdicts (and certificate
    evidence) are identical to an uninterrupted run's.  ``certificates``
    collects one verdict certificate per resolved query (see
    :mod:`repro.robust.certify`).

    ``warm_start`` seeds the search with knowledge from a *prior*
    search (see :class:`WarmStart`): replay-tier knowledge re-enacts
    the recorded rounds through the same machinery as journal resume
    (and writes them through to a live ``journal``, so the resulting
    journal file is bit-identical to a cold run's); clause-tier
    knowledge pre-partitions the initial groups and seeds each group's
    viability store with validated clauses.  A journal opened with
    ``resume=True`` takes precedence — its recorded rounds already are
    this exact search's knowledge — and ``warm_start`` is ignored.

    ``clause_feed`` plugs the search into a cross-worker clause bus
    (see :class:`~repro.robust.clausebus.ClauseFeed`): each successful
    round is published as it is recorded, and before solving a round
    the feed is drained — a sibling worker's publication of this exact
    ``(scope, round, queries)`` is replayed through the same
    re-validation machinery as journal resume (every imported clause
    re-proved against this process's own viability store) instead of
    re-running the forward fixpoint.  Records stay bit-identical to an
    uninterrupted run's: drained rounds restore charges and counters
    from the record, and abstractions they would have left in the
    forward cache are remembered so later live rounds report the same
    ``cached`` flag the uninterrupted search would.  A drained record
    that fails re-validation raises
    :class:`~repro.robust.clausebus.ClauseFeedMismatch` — callers
    retry the whole group cold rather than trust the import.
    """
    theory = client.meta.theory
    if not isinstance(theory, ParamTheory):
        raise TypeError("the meta-analysis theory must be a ParamTheory")
    select_engine = getattr(client, "use_engine", None)
    if select_engine is not None:
        select_engine(config.engine)
    if forward_cache is None and config.forward_cache_size:
        forward_cache = ForwardRunCache(config.forward_cache_size)
    if forward_cache is not None and not _cache_aware(client):
        forward_cache = None
    d_init = client.analysis.initial_state()
    records: Dict[Query, QueryRecord] = {}
    iterations: Dict[Query, int] = {q: 0 for q in queries}
    elapsed: Dict[Query, float] = {q: 0.0 for q in queries}
    steps_used: Dict[Query, float] = {q: 0.0 for q in queries}
    forward_runs: Dict[Query, int] = {q: 0 for q in queries}
    cached_runs: Dict[Query, int] = {q: 0 for q in queries}
    max_disjuncts: Dict[Query, int] = {q: 0 for q in queries}
    warm = warm_start
    if warm is not None and journal is not None and journal.replaying:
        # A resumed journal already *is* this exact search's knowledge;
        # replaying both would double-apply clauses.
        warm = None
    if warm is not None:
        warm.begin([str(q) for q in queries])
    groups: List[_Group] = [
        _Group(store=ViabilityStore(theory, d_init), queries=list(queries))
    ]
    if warm is not None and not warm.rounds and warm.clauses:
        # Clause tier: partition the initial groups by seeded clause
        # signature — a clause learned for one query must never enter
        # another query's store (it could mask that query's minimum) —
        # and validate every clause against the current parameter
        # space before it constrains anything.
        space = client.analysis.param_space
        universe = getattr(space, "universe", None)
        if universe is None:
            universe = getattr(space, "keys", None)
        buckets: "OrderedDict[Tuple, _Group]" = OrderedDict()
        for query in queries:
            seed = [
                clause_from_jsonable(c)
                for c in warm.clauses.get(str(query), [])
            ]
            store = ViabilityStore(theory, d_init)
            seeded, dropped = store.warm_start(seed, universe)
            warm.seeded_clauses += len(seeded)
            warm.dropped_clauses += len(dropped)
            signature = _clause_signature(seeded)
            bucket = buckets.get(signature)
            if bucket is None:
                bucket = _Group(store=store, queries=[])
                buckets[signature] = bucket
            bucket.queries.append(query)
        groups = list(buckets.values())
        if obs.active():
            obs.event(
                "warm_start",
                mode="clauses",
                queries=len(queries),
                groups=len(groups),
                seeded=warm.seeded_clauses,
                dropped=warm.dropped_clauses,
            )
    elif warm is not None and warm.rounds:
        if obs.active():
            obs.event(
                "warm_start",
                mode="replay",
                queries=len(queries),
                rounds=len(warm.rounds),
            )
    budgeted = config.max_seconds is not None or config.max_steps is not None
    evidence: Dict[Query, QueryEvidence] = {q: QueryEvidence() for q in queries}
    #: Survivor traces/clauses are serialised only when someone will
    #: read them (the journal, or certificate evidence).
    recording = (
        journal is not None
        or certificates is not None
        or clause_feed is not None
    )
    if journal is not None:
        journal.begin([str(q) for q in queries])
    #: Abstractions of bus-drained rounds: the uninterrupted search ran
    #: them live and left their fixpoints in its forward cache, so a
    #: later live round re-choosing one must still report ``cached``.
    feed_phantom: set = set()

    def digest_for(p: FrozenSet[str], label: str) -> str:
        if forward_cache is not None:
            result = forward_cache.fetch(client, p)
        else:
            result = client.run_forward(p)
        return annotation_digest(result, label)

    def make_budget(members: Sequence[Query]) -> Optional[Budget]:
        """A cooperative budget for work shared by ``members`` (or for
        one query's own backward pass).  Shared work is charged in
        equal shares, so the member with the least headroom going over
        implies every member is over — a budget sized on the minimum
        headroom exhausts the whole group exactly when the contract
        says it should."""
        if not budgeted:
            return None
        remaining_time = None
        if config.max_seconds is not None:
            remaining_time = config.max_seconds - min(
                elapsed[q] for q in members
            )
        remaining_steps = None
        if config.max_steps is not None:
            remaining_steps = config.max_steps - min(
                steps_used[q] for q in members
            )
        return Budget(
            max_seconds=remaining_time,
            max_steps=remaining_steps,
            clock=clock,
            check_every=config.budget_check_every,
        )

    def resolve(query: Query, status: QueryStatus, p=None, store=None) -> None:
        record = QueryRecord(
            query_id=str(query),
            status=status,
            iterations=iterations[query],
            abstraction=p,
            abstraction_cost=(
                client.analysis.param_space.cost(p) if p is not None else None
            ),
            time_seconds=elapsed[query],
            max_disjuncts=max_disjuncts[query],
            forward_runs=forward_runs[query],
            forward_cache_hits=cached_runs[query],
        )
        records[query] = record
        if obs.active():
            obs.event(
                "query_resolved",
                query=record.query_id,
                status=record.status.value,
                iterations=record.iterations,
                abstraction=sorted(p) if p is not None else None,
                abstraction_cost=record.abstraction_cost,
                time_seconds=record.time_seconds,
                max_disjuncts=record.max_disjuncts,
                forward_runs=record.forward_runs,
                forward_cache_hits=record.forward_cache_hits,
            )
        if certificates is not None:
            digest = None
            if status is QueryStatus.PROVEN and p is not None:
                if warm is not None:
                    # Replay tier: reuse the recorded annotation digest
                    # (checked against the proving abstraction) so the
                    # warm run performs zero forward fixpoints even
                    # with certification on.
                    digest = warm.stored_digest(str(query), p)
                if digest is None:
                    digest = digest_for(p, query.label)
            certificate = build_certificate(
                client,
                query,
                status,
                p,
                store.clauses if store is not None else (),
                evidence[query],
                iterations[query],
                config,
                digest,
            )
            certificates.add(certificate)
            if obs.active():
                obs.event(
                    "certificate_emitted",
                    query=str(query),
                    verdict=status.value,
                    clauses=len(certificate["clauses"]),
                    witnesses=len(certificate["witnesses"]),
                )

    def cap_reason(query: Query) -> Optional[str]:
        if iterations[query] >= config.max_iterations:
            return "iterations"
        if (
            config.max_seconds is not None
            and elapsed[query] >= config.max_seconds
        ):
            return "seconds"
        if (
            config.max_steps is not None
            and steps_used[query] >= config.max_steps
        ):
            return "steps"
        return None

    def settle_buckets(
        splits: Dict[Tuple, _Group], sink: List[_Group]
    ) -> List[str]:
        """End-of-round cap check, shared by the live and the replay
        paths (the charges are replayed exactly, so both compute the
        same answer); returns the ids of the queries exhausted."""
        exhausted_ids: List[str] = []
        for bucket in splits.values():
            live: List[Query] = []
            for query in bucket.queries:
                reason = cap_reason(query)
                if reason is not None:
                    evidence[query].provenance.append(
                        {"kind": "cap", "reason": reason}
                    )
                    resolve(query, QueryStatus.EXHAUSTED, store=bucket.store)
                    exhausted_ids.append(str(query))
                else:
                    live.append(query)
            if live:
                bucket.queries = live
                sink.append(bucket)
        return exhausted_ids

    def apply_replay(
        group: _Group, rec: dict, next_groups: List[_Group]
    ) -> None:
        """Re-enact one recorded round without re-running any analysis:
        restore the charges and counters, feed the recorded clauses
        back into the viability stores, and integrity-check the record
        against the store as we go (see :mod:`repro.robust.journal`)."""
        members = list(group.queries)
        by_id = {str(q): q for q in members}
        outcome = rec.get("outcome")
        _charge(members, float(rec.get("seconds", 0.0)), elapsed)
        _charge(members, float(rec.get("steps", 0.0)), steps_used)
        if obs.active():
            obs.event(
                "journal_replayed",
                round=rec.get("round"),
                queries=len(members),
                outcome=outcome,
            )
        if outcome in ("budget", "error"):
            reason = rec.get("reason")
            for query in members:
                if outcome == "budget":
                    evidence[query].provenance.append(
                        {"kind": "budget", "phase": "forward", "reason": reason}
                    )
                else:
                    evidence[query].provenance.append(
                        {"kind": "error", "phase": "forward", "error": reason}
                    )
                resolve(query, QueryStatus.EXHAUSTED, store=group.store)
            return
        if outcome == "impossible":
            if group.store.choose_minimum() is not None:
                raise JournalMismatch(
                    "journal records an impossible round but the replayed "
                    "store still has viable abstractions"
                )
            for query in members:
                resolve(query, QueryStatus.IMPOSSIBLE, store=group.store)
            return
        if outcome != "ok":
            raise JournalMismatch(f"unknown recorded round outcome {outcome!r}")
        recorded_p = frozenset(rec.get("abstraction") or ())
        p = group.store.choose_minimum()
        if p != recorded_p:
            raise JournalMismatch(
                f"journal records abstraction {sorted(recorded_p)} but the "
                "replayed store chooses "
                f"{sorted(p) if p is not None else None}"
            )
        cached = bool(rec.get("cached"))
        for query in members:
            iterations[query] += 1
            forward_runs[query] += 1
            if cached:
                cached_runs[query] += 1
        try:
            for qid in rec.get("proven", []):
                resolve(by_id[qid], QueryStatus.PROVEN, p, store=group.store)
            splits: Dict[Tuple, _Group] = {}
            for entry in rec.get("survivors", []):
                query = by_id[entry["query"]]
                elapsed[query] += float(entry.get("seconds", 0.0))
                steps_used[query] += float(entry.get("steps", 0.0))
                for from_k, to_k in entry.get("degraded", []):
                    evidence[query].provenance.append(
                        {"kind": "degraded", "from_k": from_k, "to_k": to_k}
                    )
                entry_outcome = entry.get("outcome")
                if entry_outcome == "clauses":
                    max_disjuncts[query] = max(
                        max_disjuncts[query],
                        int(entry.get("max_disjuncts", 0)),
                    )
                    clauses = [
                        clause_from_jsonable(c)
                        for c in entry.get("clauses", [])
                    ]
                    probe = group.store.copy()
                    added = probe.add_clauses(clauses)
                    if not probe.excludes(p):
                        raise JournalMismatch(
                            f"replayed clauses for query {entry['query']!r} "
                            "do not eliminate the recorded abstraction"
                        )
                    evidence[query].witnesses.append(
                        {
                            "abstraction": sorted(p),
                            "k": entry.get("k"),
                            "trace": entry.get("trace", []),
                            "clauses": entry.get("clauses", []),
                        }
                    )
                    signature = _clause_signature(added)
                    bucket = splits.get(signature)
                    if bucket is None:
                        bucket = _Group(store=probe, queries=[])
                        splits[signature] = bucket
                    bucket.queries.append(query)
                elif entry_outcome == "budget":
                    evidence[query].provenance.append(
                        {
                            "kind": "budget",
                            "phase": "backward",
                            "reason": entry.get("reason"),
                        }
                    )
                    resolve(query, QueryStatus.EXHAUSTED, store=group.store)
                elif entry_outcome == "explosion":
                    evidence[query].provenance.append(
                        {"kind": "explosion", "phase": "backward"}
                    )
                    resolve(query, QueryStatus.EXHAUSTED, store=group.store)
                elif entry_outcome == "error":
                    evidence[query].provenance.append(
                        {
                            "kind": "error",
                            "phase": "backward",
                            "error": entry.get("reason"),
                        }
                    )
                    resolve(query, QueryStatus.EXHAUSTED, store=group.store)
                else:
                    raise JournalMismatch(
                        f"unknown recorded survivor outcome {entry_outcome!r}"
                    )
        except KeyError as error:
            raise JournalMismatch(
                f"journal names query {error.args[0]!r}, which is not in "
                "the replayed group"
            )
        exhausted_ids = settle_buckets(splits, next_groups)
        if rec.get("exhausted", []) != exhausted_ids:
            raise JournalMismatch(
                f"replay exhausted {exhausted_ids!r} at end of round, "
                f"journal records {rec.get('exhausted')!r}"
            )

    round_index = 0
    with obs.span("query_group", queries=len(queries)):
        while groups:
            next_groups: List[_Group] = []
            for group in groups:
                round_index += 1
                if journal is not None and journal.replaying:
                    rec = journal.replay_round(
                        [str(q) for q in group.queries]
                    )
                    if rec is not None:
                        if rec.get("round") != round_index:
                            raise JournalMismatch(
                                f"journal records round {rec.get('round')!r} "
                                f"where the search reached round {round_index}"
                            )
                        with obs.span(
                            "replay_round",
                            phase="synthesis",
                            round=round_index,
                        ):
                            apply_replay(group, rec, next_groups)
                        continue
                elif warm is not None and warm.replaying:
                    rec = warm.replay_round([str(q) for q in group.queries])
                    if rec is not None:
                        if rec.get("round") != round_index:
                            raise JournalMismatch(
                                f"warm-start knowledge records round "
                                f"{rec.get('round')!r} where the search "
                                f"reached round {round_index}"
                            )
                        with obs.span(
                            "replay_round",
                            phase="synthesis",
                            round=round_index,
                        ):
                            apply_replay(group, rec, next_groups)
                        if journal is not None:
                            # Write the replayed round through, so a
                            # warm-started journal is bit-identical to
                            # the cold search's journal.
                            journal.record_round(rec)
                        continue
                elif clause_feed is not None:
                    rec = clause_feed.drain(
                        round_index, [str(q) for q in group.queries]
                    )
                    if rec is not None:
                        with obs.span(
                            "replay_round",
                            phase="synthesis",
                            round=round_index,
                            source="bus",
                        ):
                            try:
                                apply_replay(group, rec, next_groups)
                            except JournalMismatch as exc:
                                raise ClauseFeedMismatch(str(exc)) from exc
                        if rec.get("abstraction"):
                            feed_phantom.add(frozenset(rec["abstraction"]))
                        if journal is not None:
                            journal.record_round(rec)
                        if obs.active():
                            obs.event(
                                "clause_imported",
                                round=round_index,
                                queries=len(group.queries),
                                clauses=sum(
                                    len(entry.get("clauses", []))
                                    for entry in rec.get("survivors", [])
                                ),
                            )
                        continue
                with obs.span(
                    "iteration",
                    round=round_index,
                    group_size=len(group.queries),
                ) as iteration_span:
                    started = clock()
                    round_budget = make_budget(group.queries)
                    failure: Optional[Tuple[str, BaseException]] = None
                    p = None
                    witnesses: Dict[Query, Optional[Trace]] = {}
                    round_was_cached = False
                    try:
                        with robust_budget.budget_scope(round_budget):
                            with obs.span(
                                "choose", phase="synthesis"
                            ) as choose_span:
                                robust_faults.inject("choose")
                                p = group.store.choose_minimum()
                                choose_span.set(viable=p is not None)
                            if p is not None:
                                if obs.active():
                                    iteration_span.set(
                                        abstraction_cost=(
                                            client.analysis.param_space.cost(p)
                                        )
                                    )
                                with obs.span(
                                    "counterexamples", phase="forward"
                                ):
                                    if forward_cache is not None:
                                        hits_before = forward_cache.hits
                                        witnesses = client.counterexamples(
                                            group.queries,
                                            p,
                                            cache=forward_cache,
                                        )
                                        round_was_cached = (
                                            forward_cache.hits > hits_before
                                        )
                                    else:
                                        witnesses = client.counterexamples(
                                            group.queries, p
                                        )
                    except BudgetExceeded as exc:
                        failure = ("budget", exc)
                    except Exception as exc:
                        # Unexpected client failure during selection or
                        # the forward phase.  In strict mode it is the
                        # caller's bug to see; in lenient mode it costs
                        # this group its round budget, never the run.
                        if config.strict:
                            raise
                        failure = ("error", exc)
                    if (
                        not round_was_cached
                        and p is not None
                        and forward_cache is not None
                        and frozenset(p) in feed_phantom
                    ):
                        # A bus-drained round already ran this
                        # abstraction's fixpoint in the publishing
                        # worker; the uninterrupted search would have
                        # hit its forward cache here.
                        round_was_cached = True
                    # Selection + forward-run time (and budget steps)
                    # is shared by every member; charge it *before*
                    # resolving so queries proven this round carry
                    # their share but none of the backward time below.
                    round_seconds = clock() - started
                    round_steps = (
                        round_budget.steps if round_budget is not None else 0.0
                    )
                    _charge(group.queries, round_seconds, elapsed)
                    if round_budget is not None:
                        _charge(group.queries, round_steps, steps_used)
                    round_record = {
                        "round": round_index,
                        "queries": [str(q) for q in group.queries],
                        "outcome": "ok",
                        "reason": None,
                        "abstraction": sorted(p) if p is not None else None,
                        "cached": round_was_cached,
                        "seconds": round_seconds,
                        "steps": round_steps,
                        "proven": [],
                        "survivors": [],
                        "exhausted": [],
                    }
                    if failure is not None:
                        kind, exc = failure
                        if kind == "budget":
                            reason = exc.reason
                            obs.event(
                                "budget_exceeded",
                                phase="forward",
                                reason=exc.reason,
                                queries=len(group.queries),
                            )
                        else:
                            reason = repr(exc)
                            obs.event(
                                "degraded",
                                reason="forward_error",
                                error=repr(exc),
                                queries=len(group.queries),
                            )
                        iteration_span.set(outcome=kind)
                        for query in group.queries:
                            if kind == "budget":
                                evidence[query].provenance.append(
                                    {
                                        "kind": "budget",
                                        "phase": "forward",
                                        "reason": reason,
                                    }
                                )
                            else:
                                evidence[query].provenance.append(
                                    {
                                        "kind": "error",
                                        "phase": "forward",
                                        "error": reason,
                                    }
                                )
                            resolve(
                                query, QueryStatus.EXHAUSTED, store=group.store
                            )
                        if journal is not None:
                            round_record["outcome"] = kind
                            round_record["reason"] = reason
                            journal.record_round(round_record)
                        continue
                    if p is None:
                        for query in group.queries:
                            resolve(
                                query,
                                QueryStatus.IMPOSSIBLE,
                                store=group.store,
                            )
                        if journal is not None:
                            round_record["outcome"] = "impossible"
                            journal.record_round(round_record)
                        continue
                    survivors: List[Query] = []
                    for query in group.queries:
                        iterations[query] += 1
                        forward_runs[query] += 1
                        if round_was_cached:
                            cached_runs[query] += 1
                        if witnesses[query] is None:
                            if obs.detail_enabled():
                                obs.event(
                                    "iteration_detail",
                                    query=str(query),
                                    index=iterations[query],
                                    proven=True,
                                    abstraction=sorted(p),
                                )
                            round_record["proven"].append(str(query))
                            resolve(
                                query,
                                QueryStatus.PROVEN,
                                p,
                                store=group.store,
                            )
                        else:
                            survivors.append(query)
                    iteration_span.set(
                        cached=round_was_cached,
                        proven=len(group.queries) - len(survivors),
                        survivors=len(survivors),
                    )
                    # Backward meta-analysis per failing query; split
                    # the group by the clause sets learned.  Each
                    # survivor is charged its own backward pass, not an
                    # equal share of the round.
                    splits: Dict[Tuple, _Group] = {}
                    for query in survivors:
                        trace = witnesses[query]
                        entry = {
                            "query": str(query),
                            "outcome": None,
                            "reason": None,
                            "seconds": 0.0,
                            "steps": 0.0,
                            "k": None,
                            "max_disjuncts": 0,
                            "degraded": [],
                            "trace": (
                                trace_to_jsonable(trace) if recording else []
                            ),
                            "clauses": [],
                        }
                        round_record["survivors"].append(entry)
                        with obs.span(
                            "backward", phase="backward", query=str(query)
                        ) as backward_span:
                            backward_started = clock()
                            query_budget = make_budget([query])

                            def charge_backward(
                                _query=query,
                                _started=backward_started,
                                _budget=query_budget,
                                _entry=entry,
                            ) -> None:
                                seconds = clock() - _started
                                elapsed[_query] += seconds
                                _entry["seconds"] = seconds
                                if _budget is not None:
                                    steps_used[_query] += _budget.steps
                                    _entry["steps"] = _budget.steps

                            def attempt(width, _trace=trace, _query=query):
                                robust_faults.inject("backward")
                                return backward_trace(
                                    client.meta,
                                    client.analysis,
                                    _trace,
                                    p,
                                    d_init,
                                    client.fail_condition(_query),
                                    k=width,
                                    max_cubes=config.max_cubes,
                                )

                            def on_degrade(
                                failed_k, next_k, _query=query, _entry=entry
                            ):
                                _entry["degraded"].append([failed_k, next_k])
                                evidence[_query].provenance.append(
                                    {
                                        "kind": "degraded",
                                        "from_k": failed_k,
                                        "to_k": next_k,
                                    }
                                )
                                obs.event(
                                    "degraded",
                                    reason="formula_explosion",
                                    query=str(_query),
                                    from_k=failed_k,
                                    to_k=next_k,
                                )

                            try:
                                with robust_budget.budget_scope(query_budget):
                                    result, used_k = run_with_degradation(
                                        attempt,
                                        config.k,
                                        config.k_min,
                                        on_degrade,
                                    )
                                max_disjuncts[query] = max(
                                    max_disjuncts[query], result.max_disjuncts
                                )
                                probe = group.store.copy()
                                added = probe.add_failure_condition(
                                    result.condition
                                )
                                if not probe.excludes(p):
                                    raise ProgressError(
                                        f"query {query!r}: abstraction "
                                        f"{sorted(p)} was not eliminated by "
                                        "its own counterexample"
                                    )
                            except BudgetExceeded as exc:
                                charge_backward()
                                entry["outcome"] = "budget"
                                entry["reason"] = exc.reason
                                evidence[query].provenance.append(
                                    {
                                        "kind": "budget",
                                        "phase": "backward",
                                        "reason": exc.reason,
                                    }
                                )
                                backward_span.set(outcome="budget")
                                obs.event(
                                    "budget_exceeded",
                                    phase="backward",
                                    reason=exc.reason,
                                    query=str(query),
                                )
                                resolve(
                                    query,
                                    QueryStatus.EXHAUSTED,
                                    store=group.store,
                                )
                                continue
                            except FormulaExplosion:
                                # The meta-analysis formula outgrew the
                                # budget even at the narrowest beam of
                                # the degradation ladder (the analogue
                                # of the paper's k=None memory
                                # blow-ups): give up on this query
                                # rather than on the run.
                                charge_backward()
                                entry["outcome"] = "explosion"
                                evidence[query].provenance.append(
                                    {"kind": "explosion", "phase": "backward"}
                                )
                                backward_span.set(outcome="explosion")
                                resolve(
                                    query,
                                    QueryStatus.EXHAUSTED,
                                    store=group.store,
                                )
                                continue
                            except Exception as exc:
                                # ProgressError or an unexpected client
                                # failure: fatal in strict mode,
                                # contained to this query otherwise.
                                if config.strict:
                                    raise
                                charge_backward()
                                entry["outcome"] = "error"
                                entry["reason"] = repr(exc)
                                evidence[query].provenance.append(
                                    {
                                        "kind": "error",
                                        "phase": "backward",
                                        "error": repr(exc),
                                    }
                                )
                                backward_span.set(outcome="error")
                                obs.event(
                                    "degraded",
                                    reason="backward_error",
                                    query=str(query),
                                    error=repr(exc),
                                )
                                resolve(
                                    query,
                                    QueryStatus.EXHAUSTED,
                                    store=group.store,
                                )
                                continue
                            if used_k != config.k:
                                backward_span.set(degraded_to=used_k)
                            if obs.active():
                                backward_span.set(
                                    steps=len(trace),
                                    max_disjuncts=result.max_disjuncts,
                                    step_disjuncts=[
                                        len(f.cubes) for f in result.intermediate
                                    ],
                                    subsumption_drops=result.subsumption_drops,
                                    beam_prunes=result.beam_prunes,
                                    clauses=len(added),
                                )
                            if obs.detail_enabled():
                                states = forward_states(
                                    client.analysis, trace, p, d_init
                                )
                                obs.event(
                                    "iteration_detail",
                                    query=str(query),
                                    index=iterations[query],
                                    proven=False,
                                    abstraction=sorted(p),
                                    commands=[pretty_command(c) for c in trace],
                                    forward_states=[str(s) for s in states],
                                    backward_formulas=[
                                        str(f) for f in result.intermediate
                                    ],
                                )
                            entry["outcome"] = "clauses"
                            entry["k"] = used_k
                            entry["max_disjuncts"] = result.max_disjuncts
                            entry["clauses"] = [
                                clause_to_jsonable(c) for c in added
                            ]
                            if recording:
                                evidence[query].witnesses.append(
                                    {
                                        "abstraction": sorted(p),
                                        "k": used_k,
                                        "trace": entry["trace"],
                                        "clauses": entry["clauses"],
                                    }
                                )
                            signature = _clause_signature(added)
                            bucket = splits.get(signature)
                            if bucket is None:
                                bucket = _Group(store=probe, queries=[])
                                splits[signature] = bucket
                            bucket.queries.append(query)
                            charge_backward()
                    round_record["exhausted"] = settle_buckets(
                        splits, next_groups
                    )
                    if journal is not None:
                        journal.record_round(round_record)
                    if clause_feed is not None:
                        before = clause_feed.published
                        clause_feed.publish(round_record)
                        if clause_feed.published > before:
                            if obs.active():
                                obs.event(
                                    "clause_published",
                                    round=round_index,
                                    queries=len(group.queries),
                                    clauses=sum(
                                        len(entry.get("clauses", []))
                                        for entry in round_record["survivors"]
                                    ),
                                )
            groups = next_groups
    return records


def _charge(queries: Sequence[Query], amount: float, elapsed: Dict) -> None:
    """Attribute ``amount`` seconds of shared work equally to ``queries``."""
    if not queries:
        return
    share = amount / len(queries)
    for query in queries:
        elapsed[query] += share


def _clause_signature(clauses) -> Tuple:
    return tuple(
        sorted(
            tuple(sorted(((str(v), s) for v, s in clause)))
            for clause in clauses
        )
    )
