"""Append-only JSONL journal of the TRACER search — crash recovery
*mid-query*, not just between evaluation units.

The grouped driver (:func:`repro.core.tracer.run_query_group`) appends
one record per executed group-round: the chosen abstraction, the
forward verdict per member, every learned failure clause together with
the counterexample trace that justified it, degradation steps, and the
time/step charges.  The journal is a durable log
(:mod:`repro.robust.durablelog`; ``docs/ROBUSTNESS.md``, "Durable
logs"), so a SIGKILL at any instant loses at most the round in flight.

On ``--resume-journal`` the driver *replays* the recorded rounds
before going live: learned clauses feed straight back into the
:class:`~repro.core.viability.ViabilityStore` (so already-refuted
abstractions are never re-run), group splits are reproduced from the
recorded clause signatures, and per-query counters (iterations,
forward runs, time and step charges) are restored from the record —
which is what makes a resumed verdict bit-identical to an
uninterrupted one, including the certificate evidence.  Each replayed
round is integrity-checked against the store: the recomputed
minimum-cost abstraction must equal the recorded one, and every
replayed clause set must still exclude it; a journal that fails those
checks, or whose record does not decode (stale, foreign, or tampered),
raises :class:`JournalMismatch` rather than replaying garbage.  The
replay itself is the driver's one replay step
(``_Search.replay`` in :mod:`repro.core.tracer`), shared with the
warm-start replay tier and the clause bus; a journal is just one
:class:`RecordedRounds` source of recorded rounds.

Record types (``journal_header`` first, then ``round`` records in
execution order)::

    {"type": "journal_header", "version": 1, "queries": [qid, ...]}
    {"type": "round", "round": N, "queries": [qid, ...],
     "outcome": "ok" | "budget" | "error" | "impossible",
     "reason": str | null,            # budget/error outcomes
     "abstraction": [var, ...] | null, "cached": bool,
     "seconds": float, "steps": float,  # shared charges of the round
     "proven": [qid, ...],
     "survivors": [{"query": qid, "outcome": "clauses" | "budget" |
                    "explosion" | "error", "seconds": float,
                    "steps": float, "k": int | null,
                    "max_disjuncts": int, "degraded": [[from,to],...],
                    "trace": [command, ...],
                    "clauses": [[[var, sign], ...], ...]}, ...],
     "exhausted": [qid, ...]}          # end-of-round cap resolutions

Clauses serialise as sorted ``[variable, sign]`` literal lists and
traces as tagged command dicts (:func:`trace_to_jsonable`); both
round-trip exactly for every bundled client, whose parameter variables
are strings.

Records stay JSON wherever they are kept or sent: journals, the clause
bus and the knowledge store.  A round source hands each one to the
replay step as a :class:`RecordedRound`, which the replay step decodes
(:meth:`RecordedRound.decode`, the one decoder) when it reads it.  A
knowledge-store entry keeps its rounds' :class:`RecordedRound` objects
while it is indexed, so its rounds decode once per process however
often the entry is replayed.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.lang.ast import (
    Assign,
    AssignNull,
    AtomicCommand,
    CallProc,
    Invoke,
    LoadField,
    LoadGlobal,
    New,
    Observe,
    StoreField,
    StoreGlobal,
    ThreadStart,
    Trace,
)
from repro.robust.durablelog import DurableLog

__all__ = [
    "JournalMismatch",
    "RecordedRound",
    "RecordedRounds",
    "RoundCollector",
    "SearchJournal",
    "Survivor",
    "clause_from_jsonable",
    "clause_signature",
    "clause_to_jsonable",
    "command_from_dict",
    "command_to_dict",
    "load_journal",
    "trace_from_jsonable",
    "trace_to_jsonable",
]

JOURNAL_VERSION = 1


class JournalMismatch(ValueError):
    """The journal being resumed does not describe this search — a
    stale file, a different query set, or a tampered record."""


# -- codecs -------------------------------------------------------------------

_COMMAND_TYPES = {
    cls.__name__: cls
    for cls in (
        New,
        Assign,
        AssignNull,
        LoadGlobal,
        StoreGlobal,
        LoadField,
        StoreField,
        Invoke,
        ThreadStart,
        Observe,
        CallProc,
    )
}


def command_to_dict(command: AtomicCommand) -> dict:
    data = {"cmd": type(command).__name__}
    for f in dataclasses.fields(command):
        data[f.name] = getattr(command, f.name)
    return data


def command_from_dict(data: dict) -> AtomicCommand:
    kind = data.get("cmd")
    cls = _COMMAND_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown atomic command kind {kind!r}")
    return cls(**{k: v for k, v in data.items() if k != "cmd"})


def trace_to_jsonable(trace: Trace) -> List[dict]:
    return [command_to_dict(command) for command in trace]


def trace_from_jsonable(items: List[dict]) -> Trace:
    return tuple(command_from_dict(item) for item in items)


def clause_to_jsonable(clause) -> List[List]:
    """One failure clause as a sorted ``[variable, sign]`` literal
    list; deterministic across processes (frozenset iteration order is
    not)."""
    return sorted([var, bool(sign)] for var, sign in clause)


def clause_from_jsonable(items: List[List]) -> frozenset:
    return frozenset((var, bool(sign)) for var, sign in items)


def clause_signature(clauses) -> Tuple:
    """A clause set's key in the Section 6 group split: the queries of
    a group that learned equal signatures in a round stay together."""
    return tuple(
        sorted(
            tuple(sorted(((str(v), s) for v, s in clause)))
            for clause in clauses
        )
    )


# -- rounds as the search reads them ------------------------------------------


class Survivor:
    """One failing query's backward pass in a round, as the search's
    outcome rules read it: built by a live backward pass, or decoded
    from a round record's survivor entry (:meth:`decode`).  ``query`` is
    the query id; for the ``"clauses"`` outcome ``added`` holds the
    learned clauses as clause objects and ``signature`` their split
    signature.  ``trace`` and ``clauses`` are the entry's JSON forms,
    which the journal, the bus and certificate evidence read."""

    __slots__ = (
        "query",
        "outcome",
        "reason",
        "seconds",
        "steps",
        "k",
        "max_disjuncts",
        "degraded",
        "trace",
        "clauses",
        "added",
        "signature",
    )

    def __init__(self, query: str, trace: Optional[list] = None):
        self.query = query
        self.outcome: Optional[str] = None
        self.reason: Optional[str] = None
        self.seconds = 0.0
        self.steps = 0.0
        self.k: Optional[int] = None
        self.max_disjuncts = 0
        self.degraded: list = []
        self.trace = trace if trace is not None else []
        self.clauses: list = []
        self.added: Tuple[frozenset, ...] = ()
        self.signature: Tuple = ()

    @classmethod
    def decode(cls, entry: dict) -> "Survivor":
        """Decode a round record's survivor entry (see
        :meth:`RecordedRound.decode` for what it raises)."""
        survivor = cls(entry["query"], entry.get("trace", []))
        survivor.outcome = entry.get("outcome")
        survivor.reason = entry.get("reason")
        survivor.seconds = float(entry.get("seconds", 0.0))
        survivor.steps = float(entry.get("steps", 0.0))
        survivor.k = entry.get("k")
        survivor.max_disjuncts = int(entry.get("max_disjuncts", 0))
        survivor.degraded = [(a, b) for a, b in entry.get("degraded", [])]
        survivor.clauses = entry.get("clauses", [])
        if survivor.outcome == "clauses":
            survivor.added = tuple(
                clause_from_jsonable(c) for c in survivor.clauses
            )
            survivor.signature = clause_signature(survivor.added)
        return survivor

    def entry(self) -> dict:
        return {
            "query": self.query,
            "outcome": self.outcome,
            "reason": self.reason,
            "seconds": self.seconds,
            "steps": self.steps,
            "k": self.k,
            "max_disjuncts": self.max_disjuncts,
            "degraded": self.degraded,
            "trace": self.trace,
            "clauses": self.clauses,
        }


class RecordedRound:
    """One round record as a round source hands it to the replay step:
    the JSON record (``raw``, what a replay writes through to a live
    journal) and, once :meth:`decode` has run, its typed fields.

    Only an ``"ok"`` round's abstraction (``p``), proven query ids,
    survivors and exhausted ids are decoded; the other outcomes carry
    none.  The fields describe the record, never a search, so a decoded
    round can be replayed by any number of searches."""

    __slots__ = (
        "raw",
        "decoded",
        "round",
        "queries",
        "outcome",
        "reason",
        "cached",
        "seconds",
        "steps",
        "p",
        "proven",
        "survivors",
        "exhausted",
    )

    def __init__(self, raw: dict):
        self.raw = raw
        self.decoded = False

    def decode(self) -> "RecordedRound":
        """Decode the record, on the first call only; returns ``self``.
        Raises ``KeyError``, ``TypeError``, ``ValueError`` or
        ``AttributeError`` on a field that does not decode (and stays
        undecoded then)."""
        if self.decoded:
            return self
        raw = self.raw
        self.round = raw.get("round")
        self.queries = raw.get("queries")
        self.outcome = raw.get("outcome")
        self.reason = raw.get("reason")
        self.cached = bool(raw.get("cached"))
        self.seconds = float(raw.get("seconds", 0.0))
        self.steps = float(raw.get("steps", 0.0))
        self.p: Optional[frozenset] = None
        self.proven: List[str] = []
        self.survivors: List[Survivor] = []
        self.exhausted: list = []
        if self.outcome == "ok":
            self.p = frozenset(raw.get("abstraction") or ())
            self.proven = list(raw.get("proven", []))
            self.survivors = [
                Survivor.decode(entry) for entry in raw.get("survivors", [])
            ]
            self.exhausted = raw.get("exhausted", [])
        self.decoded = True
        return self


# -- the journal --------------------------------------------------------------


def _log(path: str) -> DurableLog:
    return DurableLog(path, "journal", JOURNAL_VERSION)


def _header_and_rounds(
    records: List[dict],
) -> Tuple[Optional[dict], List[dict]]:
    header: Optional[dict] = None
    rounds: List[dict] = []
    for record in records:
        rtype = record.get("type")
        if rtype == "journal_header":
            header = record
        elif rtype == "round":
            rounds.append(record)
        # other record types are forward-compatible noise
    return header, rounds


def load_journal(path: str) -> Tuple[Optional[dict], List[dict]]:
    """Read ``(header, round records)`` from a journal file, skipping a
    trailing torn line; raises on interior corruption or an unknown
    version."""
    return _header_and_rounds(_log(path).read())


class RecordedRounds:
    """The recorded rounds of one search, handed back in order — the
    round source of journal resume and of the warm-start replay tier.

    The driver asks once per round, before solving it, for "the
    recorded round for this round index and group"; a cursor answers
    with its next record, and ``None`` once all are replayed (the
    search goes live).  Whether the record really describes that round
    is the replay step's to check (``_Search.replay`` in
    :mod:`repro.core.tracer`).

    ``rounds`` holds JSON records or :class:`RecordedRound` objects; a
    knowledge-store entry passes the ones it keeps, so what one replay
    decoded the next one reads."""

    def __init__(self, rounds: Sequence = ()):
        self.rounds = [
            rec if isinstance(rec, RecordedRound) else RecordedRound(rec)
            for rec in rounds
        ]
        self.replayed_rounds = 0

    @property
    def replaying(self) -> bool:
        """Whether recorded rounds remain to be replayed."""
        return self.replayed_rounds < len(self.rounds)

    def recorded_round(
        self, round_index: int, query_ids: Sequence[str]
    ) -> Optional[RecordedRound]:
        index = self.replayed_rounds
        if index >= len(self.rounds):
            return None
        self.replayed_rounds = index + 1
        return self.rounds[index]


class SearchJournal(RecordedRounds):
    """One ``run_query_group`` call's journal: the recorded rounds to
    replay plus a crash-safe appender for new ones.

    ``resume=False`` starts a fresh journal (:meth:`begin` empties an
    existing file — a journal describes exactly one search);
    ``resume=True`` loads the recorded rounds for replay and appends the
    live rounds that follow them."""

    def __init__(self, path: str, resume: bool = False):
        self.path = path
        self._log = _log(path)
        self._fresh = not resume
        self._header: Optional[dict] = None
        rounds: List[dict] = []
        if resume:
            self._header, rounds = _header_and_rounds(self._log.read())
            if self._header is None and rounds:
                raise ValueError(f"{path}: journal has rounds but no header")
        super().__init__(rounds)

    def begin(self, query_ids: List[str]) -> None:
        """Open the journal for this query set: validate the header on
        resume, write it on a fresh run."""
        if self._header is not None:
            recorded = self._header.get("queries")
            if recorded != list(query_ids):
                raise JournalMismatch(
                    f"{self.path}: journal was recorded for queries "
                    f"{recorded!r}, not {list(query_ids)!r}"
                )
        else:
            self._log.open(fresh=self._fresh, queries=list(query_ids))

    def record_round(self, record: dict) -> None:
        """Append one round the search ran live or replayed from
        another source (its own recorded rounds are already on
        disk)."""
        self._log.append(dict(record, type="round"))

    def close(self) -> None:
        """Nothing to release: every append opens its own handle."""

    def __enter__(self) -> "SearchJournal":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class RoundCollector:
    """An in-memory journal sink, duck-typed like :class:`SearchJournal`.

    The session layer (:mod:`repro.serve.session`) passes one of these
    as the driver's ``journal`` to capture the executed rounds for the
    knowledge store without touching disk; when ``inner`` is given
    (the caller's real journal), every call is forwarded to it too, so
    the on-disk journal stays byte-identical to what the driver would
    have written directly.  Records only: replay belongs to the real
    journal or to :class:`~repro.core.tracer.WarmStart`."""

    def __init__(self, inner=None):
        self.inner = inner
        self.query_ids: Optional[List[str]] = None
        self.rounds: List[dict] = []

    def begin(self, query_ids: List[str]) -> None:
        self.query_ids = list(query_ids)
        if self.inner is not None:
            self.inner.begin(query_ids)

    def record_round(self, record: dict) -> None:
        record = dict(record)
        record.pop("type", None)
        self.rounds.append(record)
        if self.inner is not None:
            self.inner.record_round(record)

    def close(self) -> None:
        # The inner journal belongs to the caller; leave it open.
        pass
