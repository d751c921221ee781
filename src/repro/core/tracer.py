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
import types
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, fields
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
from repro.core.viability import ParamTheory, ViabilityStore, refutes
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
    RecordedRound,
    RecordedRounds,
    SearchJournal,
    Survivor,
    clause_from_jsonable,
    clause_signature,
    clause_to_jsonable,
    trace_to_jsonable,
)

Query = Hashable


def hash_once(cls):
    """Give the frozen dataclass ``cls`` a hash computed once per object
    and process.

    Queries key a search's records and the dicts callers build from
    them, and a frozen dataclass rebuilds its field tuple on every
    hash.  The value is the dataclass's own (the hash of the field
    tuple); it is kept outside the fields, so equality and ``repr``
    ignore it, and it is never pickled: string hashes differ between
    processes with different hash seeds."""
    names = tuple(item.name for item in fields(cls))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(tuple(getattr(self, name) for name in names))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


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

    def holds(self, client: TracerClient, p: FrozenSet[str]) -> bool:
        """Whether the result for ``(client, p)`` is cached (neither
        counted nor moved in the LRU order)."""
        return (client.cache_key(), p) in self._entries

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


class WarmStart(RecordedRounds):
    """Prior knowledge seeding a new search — the journal replay
    generalised from "resume one crashed search" to "seed any new
    search" (see :mod:`repro.serve.store` for where the knowledge
    comes from).

    Two tiers, mutually exclusive:

    * **replay** (``rounds`` non-empty): the recorded CEGAR rounds of a
      completed search over the *same* program digest, query set, and
      config are re-enacted by the driver's replay step, exactly as a
      resumed journal's are — clauses feed back into the viability
      stores, counters and charges are restored, refuted abstractions
      are never re-run, and every round is integrity-checked against
      the evolving store (:class:`~repro.robust.journal.JournalMismatch`
      on divergence).  Verdicts, certificates, and journal records are
      bit-identical to a cold search; no forward fixpoint runs at all
      (``digests`` lets the certificate path reuse the recorded
      annotation digests instead of re-running the proving fixpoint).

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
    journal would.  ``rounds`` holds JSON round records or the
    :class:`~repro.robust.journal.RecordedRound` objects a knowledge
    store keeps for an entry (see :class:`RecordedRounds`).
    """

    def __init__(
        self,
        rounds: Sequence = (),
        clauses: Optional[Dict[str, Sequence]] = None,
        digests: Optional[Dict[str, Tuple[Tuple[str, ...], str]]] = None,
        queries: Optional[Sequence[str]] = None,
    ):
        super().__init__(rounds)
        self.clauses = dict(clauses or {})
        self.digests = dict(digests or {})
        self.queries = list(queries) if queries is not None else None
        self.seeded_clauses = 0
        self.dropped_clauses = 0

    def begin(self, query_ids: Sequence[str]) -> None:
        if self.queries is not None and list(query_ids) != self.queries:
            raise JournalMismatch(
                f"warm-start knowledge was recorded for queries "
                f"{self.queries!r}, not {list(query_ids)!r}"
            )

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


class _QueryState:
    """One query's part of a search: the counters its record is built
    from, its id, and — only when certificates are collected — its
    evidence.  Groups hold these, so the round loop and the outcome
    rules reach a query's counters without hashing the query."""

    __slots__ = (
        "query",
        "id",
        "iterations",
        "elapsed",
        "steps",
        "forward_runs",
        "cached_runs",
        "max_disjuncts",
        "evidence",
    )

    def __init__(self, query: Query, evidence: Optional[QueryEvidence]):
        self.query = query
        self.id = str(query)
        self.iterations = 0
        self.elapsed = 0.0
        self.steps = 0.0
        self.forward_runs = 0
        self.cached_runs = 0
        self.max_disjuncts = 0
        self.evidence = evidence

    def note(self, entry: dict) -> None:
        """Add ``entry`` to the certificate provenance, if collected."""
        if self.evidence is not None:
            self.evidence.provenance.append(entry)


@dataclass
class _Group:
    """One group of queries sharing an identical unviable set."""

    store: ViabilityStore
    states: List[_QueryState]


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


#: ``_cache_aware``'s answer per ``counterexamples`` function: every
#: client bound to one function has the same signature.
_CACHE_AWARE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _cache_aware(client: TracerClient) -> bool:
    """Whether the client's ``counterexamples`` accepts a ``cache``
    argument (clients predating the forward-run cache may not).  A
    bound method is inspected once per function; a callable set on the
    instance is inspected on every call.

    The two-argument signature is deprecated: it silently opts the
    client out of forward-run caching.  Accept a ``cache`` keyword (and
    ignore it if you must) instead."""
    counterexamples = client.counterexamples
    func = getattr(counterexamples, "__func__", None)
    if not isinstance(func, types.FunctionType):
        func = None
    aware = _CACHE_AWARE.get(func) if func is not None else None
    if aware is None:
        try:
            aware = "cache" in inspect.signature(counterexamples).parameters
        except (TypeError, ValueError):
            aware = False
        if func is not None:
            _CACHE_AWARE[func] = aware
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
    the recorded rounds exactly as journal resume does (and writes them
    through to a live ``journal``, so the resulting journal file is
    bit-identical to a cold run's); clause-tier knowledge pre-partitions
    the initial groups and seeds each group's viability store with
    validated clauses.  A journal opened with ``resume=True`` takes
    precedence — its recorded rounds already are this exact search's
    knowledge — and ``warm_start`` is ignored.

    ``clause_feed`` plugs the search into a cross-worker clause bus
    (see :class:`~repro.robust.clausebus.ClauseFeed`): each successful
    round is published as it is recorded, and a sibling worker's
    publication of this exact ``(scope, round, queries)`` is replayed
    instead of re-running the forward fixpoint.  A drained record that
    fails re-validation raises
    :class:`~repro.robust.clausebus.ClauseFeedMismatch` — callers retry
    the whole group cold rather than trust the import.

    The resumed journal, the warm start's replay tier and the clause
    feed are round sources, asked in that order before each round; the
    first recorded round found goes through one replay step, so the
    records are those of an uninterrupted run whichever source
    replayed a round.  That includes the ``cached`` flags: a live
    round that re-chooses a replayed round's abstraction first runs its
    fixpoint into the forward cache, outside the round's budget, where
    the uninterrupted search's cache would have held it.
    """
    if not isinstance(client.meta.theory, ParamTheory):
        raise TypeError("the meta-analysis theory must be a ParamTheory")
    select_engine = getattr(client, "use_engine", None)
    if select_engine is not None:
        select_engine(config.engine)
    if forward_cache is None and config.forward_cache_size:
        forward_cache = ForwardRunCache(config.forward_cache_size)
    if forward_cache is not None and not _cache_aware(client):
        forward_cache = None
    return _Search(
        client,
        queries,
        config,
        forward_cache,
        clock,
        journal,
        certificates,
        warm_start,
        clause_feed,
    ).run()


@dataclass
class _Round:
    """One live CEGAR round of one group, as the outcome rules read it
    (the fields of a decoded :class:`~repro.robust.journal.RecordedRound`)
    and a round record stores it (the schema is in
    :mod:`repro.robust.journal`).  ``trace`` and ``clauses`` of its
    survivors are made only when something reads them (the journal,
    the bus or certificate evidence)."""

    outcome: str = "ok"
    reason: Optional[str] = None
    p: Optional[FrozenSet] = None
    cached: bool = False
    seconds: float = 0.0
    steps: float = 0.0
    proven: List[_QueryState] = field(default_factory=list)
    survivors: List[Survivor] = field(default_factory=list)
    exhausted: list = field(default_factory=list)

    def record(self, round_index: int, query_ids: List[str]) -> dict:
        return {
            "round": round_index,
            "queries": query_ids,
            "outcome": self.outcome,
            "reason": self.reason,
            "abstraction": sorted(self.p) if self.p is not None else None,
            "cached": self.cached,
            "seconds": self.seconds,
            "steps": self.steps,
            "proven": [state.id for state in self.proven],
            "survivors": [survivor.entry() for survivor in self.survivors],
            "exhausted": self.exhausted,
        }


def _recorded_round(
    rec: RecordedRound, group: _Group, round_index: int, query_ids: List[str]
) -> Tuple[RecordedRound, List[_QueryState], list]:
    """Decode the recorded round ``rec`` (once: a store entry keeps its
    decoded rounds) and check it against the search about to replay it:
    its round index and group, the recomputed minimum-cost abstraction
    (none left for an impossible round), and that each survivor's
    clauses refute it.  Returns the decoded round, its proven members,
    and its survivors as ``(member, survivor)`` pairs.  Raises
    :class:`JournalMismatch` on a failed check, and ``KeyError``,
    ``TypeError``, ``ValueError`` or ``AttributeError`` on a field that
    does not decode."""
    rnd = rec.decode()
    if rnd.round != round_index:
        raise JournalMismatch(
            f"recorded round {rnd.round!r} where the search reached "
            f"round {round_index}"
        )
    if rnd.queries != query_ids:
        raise JournalMismatch(
            f"round {round_index} was recorded for group "
            f"{rnd.queries!r}, but the search reached group "
            f"{query_ids!r}"
        )
    if rnd.outcome in ("budget", "error"):
        return rnd, [], []
    chosen = group.store.choose_minimum()
    if rnd.outcome == "impossible":
        if chosen is not None:
            raise JournalMismatch(
                "an impossible round was recorded but the replayed store "
                "still has viable abstractions"
            )
        return rnd, [], []
    if rnd.outcome != "ok":
        raise JournalMismatch(
            f"unknown recorded round outcome {rnd.outcome!r}"
        )
    p = rnd.p
    if chosen != p:
        raise JournalMismatch(
            f"abstraction {sorted(p)} was recorded but the replayed store "
            f"chooses {sorted(chosen) if chosen is not None else None}"
        )
    by_id = {state.id: state for state in group.states}
    proven = [by_id[qid] for qid in rnd.proven]
    survivors = []
    for survivor in rnd.survivors:
        state = by_id[survivor.query]
        if survivor.outcome == "clauses":
            # Testing the added clauses alone is exact: ``p`` is the
            # group store's MinCostSAT minimum (checked above), so it
            # satisfies every older clause, and the store with these
            # clauses excludes ``p`` exactly when one of them does.
            if not refutes(survivor.added, p):
                raise JournalMismatch(
                    f"the recorded clauses of query {survivor.query!r} do "
                    "not eliminate the recorded abstraction"
                )
        elif survivor.outcome not in ("budget", "explosion", "error"):
            raise JournalMismatch(
                f"unknown recorded survivor outcome {survivor.outcome!r}"
            )
        survivors.append((state, survivor))
    return rnd, proven, survivors


class _Search:
    """One grouped TRACER search: the per-query states, the round loop,
    and its steps.

    A round is either run live — choose and forward
    (:meth:`choose_and_forward`), one backward pass per failing query
    (:meth:`backward_pass`) — or replayed from a recorded round
    (:meth:`replay`).  Both apply their outcomes through the same rules
    (:meth:`apply_forward`, :meth:`apply_survivor`, :meth:`settle_caps`),
    so a replayed round leaves exactly the state the live one did."""

    def __init__(
        self,
        client: TracerClient,
        queries: Sequence[Query],
        config: TracerConfig,
        forward_cache: Optional[ForwardRunCache],
        clock: Callable[[], float],
        journal,
        certificates: Optional[CertificateStore],
        warm: Optional[WarmStart],
        clause_feed,
    ):
        self.client = client
        self.config = config
        self.forward_cache = forward_cache
        self.clock = clock
        self.journal = journal
        self.certificates = certificates
        self.clause_feed = clause_feed
        self.d_init = client.analysis.initial_state()
        self.records: Dict[Query, QueryRecord] = {}
        #: One state per query; evidence only when certificates read it.
        collecting = certificates is not None
        self.states = [
            _QueryState(query, QueryEvidence() if collecting else None)
            for query in queries
        ]
        #: Survivor traces/clauses are serialised only when someone will
        #: read them (the journal, certificate evidence, or the bus).
        self.recording = (
            journal is not None
            or certificates is not None
            or clause_feed is not None
        )
        #: Abstractions of replayed ``ok`` rounds; see :meth:`prefetch`.
        self.replayed: set = set()
        resuming = getattr(journal, "replaying", False)
        if resuming:
            # A resumed journal already *is* this exact search's
            # knowledge; replaying both would double-apply clauses.
            warm = None
        self.warm = warm
        #: The round sources, asked in this order before each round.
        self.sources = [
            source
            for source in (
                journal if resuming else None,
                warm if warm is not None and warm.rounds else None,
                clause_feed,
            )
            if source is not None
        ]

    def run(self) -> Dict[Query, QueryRecord]:
        """The round loop: each group of each generation gets one round,
        replayed when a round source holds it and live otherwise; the
        groups that survive a round's caps form the next generation."""
        query_ids = [state.id for state in self.states]
        if self.warm is not None:
            self.warm.begin(query_ids)
        groups = self.initial_groups()
        if self.journal is not None:
            self.journal.begin(query_ids)
        round_index = 0
        with obs.span("query_group", queries=len(self.states)):
            while groups:
                next_groups: List[_Group] = []
                for group in groups:
                    round_index += 1
                    ids = [state.id for state in group.states]
                    for source in self.sources:
                        rec = source.recorded_round(round_index, ids)
                        if rec is not None:
                            self.replay(
                                source, group, round_index, ids, rec,
                                next_groups,
                            )
                            break
                    else:
                        self.live_round(group, round_index, ids, next_groups)
                groups = next_groups
        return self.records

    def initial_groups(self) -> List[_Group]:
        """One group of all queries — or, on a clause-tier warm start,
        one per seeded clause signature."""
        states = self.states
        theory = self.client.meta.theory
        warm = self.warm
        if warm is None or warm.rounds or not warm.clauses:
            if warm is not None and warm.rounds and obs.active():
                obs.event(
                    "warm_start",
                    mode="replay",
                    queries=len(states),
                    rounds=len(warm.rounds),
                )
            return [_Group(ViabilityStore(theory, self.d_init), list(states))]
        # Clause tier: partition the initial groups by seeded clause
        # signature — a clause learned for one query must never enter
        # another query's store (it could mask that query's minimum) —
        # and validate every clause against the current parameter
        # space before it constrains anything.
        space = self.client.analysis.param_space
        universe = getattr(space, "universe", None)
        if universe is None:
            universe = getattr(space, "keys", None)
        buckets: "OrderedDict[Tuple, _Group]" = OrderedDict()
        for state in states:
            seed = [
                clause_from_jsonable(c)
                for c in warm.clauses.get(state.id, [])
            ]
            store = ViabilityStore(theory, self.d_init)
            seeded, dropped = store.warm_start(seed, universe)
            warm.seeded_clauses += len(seeded)
            warm.dropped_clauses += len(dropped)
            signature = clause_signature(seeded)
            bucket = buckets.get(signature)
            if bucket is None:
                bucket = buckets[signature] = _Group(store=store, states=[])
            bucket.states.append(state)
        groups = list(buckets.values())
        if obs.active():
            obs.event(
                "warm_start",
                mode="clauses",
                queries=len(states),
                groups=len(groups),
                seeded=warm.seeded_clauses,
                dropped=warm.dropped_clauses,
            )
        return groups

    # -- a live round -------------------------------------------------------

    def live_round(
        self,
        group: _Group,
        round_index: int,
        ids: List[str],
        next_groups: List[_Group],
    ) -> None:
        """Run one round live and record it: choose and forward, the
        forward outcome, a backward pass per failing query, the caps."""
        states = group.states
        with obs.span(
            "iteration", round=round_index, group_size=len(states)
        ) as span:
            rnd, witnesses = self.choose_and_forward(group, span)
            if rnd.outcome in ("budget", "error"):
                span.set(outcome=rnd.outcome)
            if self.apply_forward(
                group, rnd, rnd.proven, detail=obs.detail_enabled()
            ):
                span.set(
                    cached=rnd.cached,
                    proven=len(rnd.proven),
                    survivors=len(states) - len(rnd.proven),
                )
                splits: Dict[Tuple, _Group] = {}
                for state in states:
                    trace = witnesses[state.query]
                    if trace is None:
                        continue
                    with obs.span(
                        "backward", phase="backward", query=state.id
                    ) as backward_span:
                        survivor = self.backward_pass(
                            group, rnd.p, state, trace, backward_span
                        )
                        self.apply_survivor(
                            group, rnd.p, state, survivor, splits
                        )
                    rnd.survivors.append(survivor)
                rnd.exhausted = self.settle_caps(splits, next_groups)
            feed = self.clause_feed
            if self.journal is None and feed is None:
                return
            record = rnd.record(round_index, ids)
            if self.journal is not None:
                self.journal.record_round(record)
            if feed is not None:
                before = feed.published
                feed.publish(record)
                if feed.published > before and obs.active():
                    obs.event(
                        "clause_published",
                        round=round_index,
                        queries=len(ids),
                        clauses=sum(len(s.clauses) for s in rnd.survivors),
                    )

    def choose_and_forward(
        self, group: _Group, span
    ) -> Tuple[_Round, Dict[Query, Optional[Trace]]]:
        """Choose the group's minimum-cost viable abstraction and run the
        forward analysis under it, within the round's budget; returns
        the round so far (its shared charge, and a forward budget
        overrun or lenient error as its outcome) and the witnesses."""
        clock = self.clock
        started = clock()
        states = group.states
        queries = [state.query for state in states]
        budget = self.budget(states)
        rnd = _Round()
        witnesses: Dict[Query, Optional[Trace]] = {}
        cache = self.forward_cache
        try:
            with robust_budget.budget_scope(budget):
                with obs.span("choose", phase="synthesis") as choose_span:
                    robust_faults.inject("choose")
                    rnd.p = group.store.choose_minimum()
                    choose_span.set(viable=rnd.p is not None)
            if rnd.p is None:
                rnd.outcome = "impossible"
            else:
                started += self.prefetch(rnd.p)
                if obs.active():
                    span.set(
                        abstraction_cost=self.client.analysis.param_space.cost(
                            rnd.p
                        )
                    )
                with robust_budget.budget_scope(budget), obs.span(
                    "counterexamples", phase="forward"
                ):
                    if cache is not None:
                        hits_before = cache.hits
                        witnesses = self.client.counterexamples(
                            queries, rnd.p, cache=cache
                        )
                        rnd.cached = cache.hits > hits_before
                    else:
                        witnesses = self.client.counterexamples(
                            queries, rnd.p
                        )
        except BudgetExceeded as exc:
            rnd.outcome, rnd.reason = "budget", exc.reason
            obs.event(
                "budget_exceeded",
                phase="forward",
                reason=exc.reason,
                queries=len(states),
            )
        except Exception as exc:
            # Unexpected client failure during selection or the forward
            # phase.  In strict mode it is the caller's bug to see; in
            # lenient mode it costs this group its round, never the run.
            if self.config.strict:
                raise
            rnd.outcome, rnd.reason = "error", repr(exc)
            obs.event(
                "degraded",
                reason="forward_error",
                error=repr(exc),
                queries=len(states),
            )
        rnd.seconds = clock() - started
        rnd.steps = budget.steps if budget is not None else 0.0
        if rnd.outcome == "ok":
            rnd.proven = [s for s in states if witnesses[s.query] is None]
        return rnd, witnesses

    def prefetch(self, p: FrozenSet[str]) -> float:
        """Run a replayed round's fixpoint into the forward cache before
        a live round uses its abstraction ``p`` again; returns the
        seconds it took.

        The uninterrupted search ran that fixpoint live and kept it in
        its forward cache, so the live round must be a cache hit here
        too.  The fixpoint's cost is the replayed round's, whose
        charges the record restored, so it runs outside the round's
        budget and its seconds are not charged to the round."""
        cache = self.forward_cache
        if (
            p not in self.replayed
            or cache is None
            or cache.holds(self.client, p)
        ):
            return 0.0
        started = self.clock()
        with obs.span("forward_run", phase="forward", cached=False):
            cache.fetch(self.client, p)
        return self.clock() - started

    def backward_pass(
        self,
        group: _Group,
        p: FrozenSet[str],
        state: _QueryState,
        trace: Trace,
        span,
    ) -> Survivor:
        """The backward meta-analysis of one failing query under its own
        budget, degrading the beam on a formula explosion: the clauses
        it learns (checked to eliminate ``p``) or, contained in lenient
        mode, a budget overrun, explosion or error."""
        client, config = self.client, self.config
        query = state.query
        survivor = Survivor(
            state.id, trace_to_jsonable(trace) if self.recording else None
        )
        started = self.clock()
        budget = self.budget([state])

        def attempt(width):
            robust_faults.inject("backward")
            return backward_trace(
                client.meta,
                client.analysis,
                trace,
                p,
                self.d_init,
                client.fail_condition(query),
                k=width,
                max_cubes=config.max_cubes,
            )

        def on_degrade(failed_k, next_k):
            survivor.degraded.append([failed_k, next_k])
            obs.event(
                "degraded",
                reason="formula_explosion",
                query=state.id,
                from_k=failed_k,
                to_k=next_k,
            )

        try:
            with robust_budget.budget_scope(budget):
                result, used_k = run_with_degradation(
                    attempt, config.k, config.k_min, on_degrade
                )
            survivor.max_disjuncts = result.max_disjuncts
            probe = group.store.copy()
            added = probe.add_failure_condition(result.condition)
            if not probe.excludes(p):
                raise ProgressError(
                    f"query {query!r}: abstraction {sorted(p)} was not "
                    "eliminated by its own counterexample"
                )
        except BudgetExceeded as exc:
            survivor.outcome, survivor.reason = "budget", exc.reason
            span.set(outcome="budget")
            obs.event(
                "budget_exceeded",
                phase="backward",
                reason=exc.reason,
                query=state.id,
            )
        except FormulaExplosion:
            # The meta-analysis formula outgrew the budget even at the
            # narrowest beam of the degradation ladder (the analogue of
            # the paper's k=None memory blow-ups): give up on this query
            # rather than on the run.
            survivor.outcome = "explosion"
            span.set(outcome="explosion")
        except Exception as exc:
            # ProgressError or an unexpected client failure: fatal in
            # strict mode, contained to this query otherwise.
            if config.strict:
                raise
            survivor.outcome, survivor.reason = "error", repr(exc)
            span.set(outcome="error")
            obs.event(
                "degraded",
                reason="backward_error",
                query=state.id,
                error=repr(exc),
            )
        else:
            survivor.outcome, survivor.k = "clauses", used_k
            survivor.added = added
            survivor.signature = clause_signature(added)
            if self.recording:
                survivor.clauses = [clause_to_jsonable(c) for c in added]
            if used_k != config.k:
                span.set(degraded_to=used_k)
            if obs.active():
                span.set(
                    steps=len(trace),
                    max_disjuncts=result.max_disjuncts,
                    step_disjuncts=result.step_disjuncts,
                    subsumption_drops=result.subsumption_drops,
                    beam_prunes=result.beam_prunes,
                    clauses=len(added),
                )
            if obs.detail_enabled():
                states = forward_states(client.analysis, trace, p, self.d_init)
                obs.event(
                    "iteration_detail",
                    query=state.id,
                    index=state.iterations,
                    proven=False,
                    abstraction=sorted(p),
                    commands=[pretty_command(c) for c in trace],
                    forward_states=[str(s) for s in states],
                    backward_formulas=[str(f) for f in result.intermediate],
                )
        survivor.seconds = self.clock() - started
        if budget is not None:
            survivor.steps = budget.steps
        return survivor

    # -- a replayed round ---------------------------------------------------

    def replay(
        self,
        source,
        group: _Group,
        round_index: int,
        ids: List[str],
        rec: RecordedRound,
        next_groups: List[_Group],
    ) -> None:
        """Re-enact a recorded round — from a resumed journal, a warm
        start's replay tier or the clause bus — without re-running any
        analysis: check it against the search, apply its outcomes
        through the live round's rules, write it through to the
        journal, and remember its abstraction for :meth:`prefetch`.

        A record that fails a check or does not decode raises the
        source's mismatch error:
        :class:`~repro.robust.clausebus.ClauseFeedMismatch` for the bus,
        :class:`~repro.robust.journal.JournalMismatch` otherwise."""
        bus = source is self.clause_feed
        mismatch = ClauseFeedMismatch if bus else JournalMismatch
        attrs = {"source": "bus"} if bus else {}
        with obs.span(
            "replay_round", phase="replay", round=round_index, **attrs
        ):
            try:
                rnd, proven, survivors = _recorded_round(
                    rec, group, round_index, ids
                )
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                # JournalMismatch is a ValueError, so failed checks and
                # fields that do not decode both land here.
                raise mismatch(
                    f"recorded round {round_index}: {exc!r}"
                ) from exc
            if obs.active():
                obs.event(
                    "journal_replayed",
                    round=round_index,
                    queries=len(ids),
                    outcome=rnd.outcome,
                )
            if self.apply_forward(group, rnd, proven):
                splits: Dict[Tuple, _Group] = {}
                for state, survivor in survivors:
                    self.apply_survivor(group, rnd.p, state, survivor, splits)
                exhausted = self.settle_caps(splits, next_groups)
                if exhausted != rnd.exhausted:
                    raise mismatch(
                        f"replay exhausted {exhausted!r} at the end of round "
                        f"{round_index}, the record has {rnd.exhausted!r}"
                    )
                self.replayed.add(rnd.p)
        if self.journal is not None and source is not self.journal:
            # Write the replayed round through, so the journal is
            # bit-identical to the uninterrupted search's.
            self.journal.record_round(rec.raw)
        if bus and obs.active():
            obs.event(
                "clause_imported",
                round=round_index,
                queries=len(ids),
                clauses=sum(len(s.clauses) for s in rnd.survivors),
            )

    # -- the outcome rules, shared by live and replayed rounds ---------------

    def apply_forward(
        self,
        group: _Group,
        rnd,
        proven: Sequence[_QueryState],
        detail: bool = False,
    ) -> bool:
        """Charge a round's shared work equally to its members and apply
        its forward outcome: a budget overrun or error exhausts every
        member, an empty viable set makes them impossible, and otherwise
        each member counts an iteration (and a forward run, cached or
        not) and the ``proven`` ones resolve.  Returns whether backward
        passes follow.  ``rnd`` is a live :class:`_Round` or a decoded
        :class:`~repro.robust.journal.RecordedRound`; ``detail`` emits
        the proven ones' ``iteration_detail`` events (live rounds in
        detail mode)."""
        states = group.states
        _charge(states, rnd.seconds, rnd.steps)
        if rnd.outcome in ("budget", "error"):
            key = "reason" if rnd.outcome == "budget" else "error"
            for state in states:
                state.note(
                    {"kind": rnd.outcome, "phase": "forward", key: rnd.reason}
                )
                self.resolve(state, QueryStatus.EXHAUSTED, store=group.store)
            return False
        if rnd.outcome == "impossible":
            for state in states:
                self.resolve(state, QueryStatus.IMPOSSIBLE, store=group.store)
            return False
        cached = rnd.cached
        for state in states:
            state.iterations += 1
            state.forward_runs += 1
            if cached:
                state.cached_runs += 1
        for state in proven:
            if detail:
                obs.event(
                    "iteration_detail",
                    query=state.id,
                    index=state.iterations,
                    proven=True,
                    abstraction=sorted(rnd.p),
                )
            self.resolve(state, QueryStatus.PROVEN, rnd.p, store=group.store)
        return True

    def apply_survivor(
        self,
        group: _Group,
        p: FrozenSet[str],
        state: _QueryState,
        survivor: Survivor,
        splits: Dict[Tuple, _Group],
    ) -> None:
        """Charge a survivor its own backward pass and apply its outcome:
        learned clauses put it in the next-round group of its clause
        signature (the Section 6 split; the group's store plus the
        clauses of the first member to learn them), and a budget
        overrun, explosion or error resolves it exhausted."""
        state.elapsed += survivor.seconds
        state.steps += survivor.steps
        state.max_disjuncts = max(state.max_disjuncts, survivor.max_disjuncts)
        evidence = state.evidence
        if evidence is not None:
            for from_k, to_k in survivor.degraded:
                evidence.provenance.append(
                    {"kind": "degraded", "from_k": from_k, "to_k": to_k}
                )
        if survivor.outcome == "clauses":
            if evidence is not None:
                evidence.witnesses.append(
                    {
                        "abstraction": sorted(p),
                        "k": survivor.k,
                        "trace": survivor.trace,
                        "clauses": survivor.clauses,
                    }
                )
            bucket = splits.get(survivor.signature)
            if bucket is None:
                store = group.store.copy()
                store.add_clauses(survivor.added)
                bucket = splits[survivor.signature] = _Group(store, [])
            bucket.states.append(state)
            return
        if survivor.outcome == "budget":
            state.note(
                {
                    "kind": "budget",
                    "phase": "backward",
                    "reason": survivor.reason,
                }
            )
        elif survivor.outcome == "explosion":
            state.note({"kind": "explosion", "phase": "backward"})
        else:
            state.note(
                {
                    "kind": "error",
                    "phase": "backward",
                    "error": survivor.reason,
                }
            )
        self.resolve(state, QueryStatus.EXHAUSTED, store=group.store)

    def settle_caps(
        self, splits: Dict[Tuple, _Group], sink: List[_Group]
    ) -> List[str]:
        """End-of-round cap check: resolve every split member past a cap
        exhausted and queue the rest for the next round; returns the ids
        of the queries exhausted."""
        exhausted_ids: List[str] = []
        for bucket in splits.values():
            live: List[_QueryState] = []
            for state in bucket.states:
                reason = self.cap_reason(state)
                if reason is not None:
                    state.note({"kind": "cap", "reason": reason})
                    self.resolve(
                        state, QueryStatus.EXHAUSTED, store=bucket.store
                    )
                    exhausted_ids.append(state.id)
                else:
                    live.append(state)
            if live:
                bucket.states = live
                sink.append(bucket)
        return exhausted_ids

    def cap_reason(self, state: _QueryState) -> Optional[str]:
        config = self.config
        if state.iterations >= config.max_iterations:
            return "iterations"
        if (
            config.max_seconds is not None
            and state.elapsed >= config.max_seconds
        ):
            return "seconds"
        if config.max_steps is not None and state.steps >= config.max_steps:
            return "steps"
        return None

    def budget(self, members: Sequence[_QueryState]) -> Optional[Budget]:
        """A cooperative budget for work shared by ``members`` (or for
        one query's own backward pass).  Shared work is charged in
        equal shares, so the member with the least headroom going over
        implies every member is over — a budget sized on the minimum
        headroom exhausts the whole group exactly when the contract
        says it should."""
        config = self.config
        if config.max_seconds is None and config.max_steps is None:
            return None
        remaining_time = None
        if config.max_seconds is not None:
            remaining_time = config.max_seconds - min(
                state.elapsed for state in members
            )
        remaining_steps = None
        if config.max_steps is not None:
            remaining_steps = config.max_steps - min(
                state.steps for state in members
            )
        return Budget(
            max_seconds=remaining_time,
            max_steps=remaining_steps,
            clock=self.clock,
            check_every=config.budget_check_every,
        )

    def resolve(
        self, state: _QueryState, status: QueryStatus, p=None, store=None
    ) -> None:
        """Record the query's verdict from its counters, and emit its
        certificate when certificates are collected."""
        client = self.client
        record = QueryRecord(
            query_id=state.id,
            status=status,
            iterations=state.iterations,
            abstraction=p,
            abstraction_cost=(
                client.analysis.param_space.cost(p) if p is not None else None
            ),
            time_seconds=state.elapsed,
            max_disjuncts=state.max_disjuncts,
            forward_runs=state.forward_runs,
            forward_cache_hits=state.cached_runs,
        )
        self.records[state.query] = record
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
        if self.certificates is None:
            return
        query = state.query
        digest = None
        if status is QueryStatus.PROVEN and p is not None:
            if self.warm is not None:
                # Replay tier: reuse the recorded annotation digest
                # (checked against the proving abstraction) so the warm
                # run performs zero forward fixpoints even with
                # certification on.
                digest = self.warm.stored_digest(state.id, p)
            if digest is None:
                if self.forward_cache is not None:
                    result = self.forward_cache.fetch(client, p)
                else:
                    result = client.run_forward(p)
                digest = annotation_digest(result, query.label)
        certificate = build_certificate(
            client,
            query,
            status,
            p,
            store.clauses if store is not None else (),
            state.evidence,
            state.iterations,
            self.config,
            digest,
        )
        self.certificates.add(certificate)
        if obs.active():
            obs.event(
                "certificate_emitted",
                query=state.id,
                verdict=status.value,
                clauses=len(certificate["clauses"]),
                witnesses=len(certificate["witnesses"]),
            )


def _charge(
    states: Sequence[_QueryState], seconds: float, steps: float
) -> None:
    """Attribute a round's shared ``seconds`` and ``steps`` equally to
    its members' ``states``."""
    if not states:
        return
    if seconds:
        share = seconds / len(states)
        for state in states:
            state.elapsed += share
    if steps:
        share = steps / len(states)
        for state in states:
            state.steps += share
