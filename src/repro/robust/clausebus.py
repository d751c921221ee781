"""The clause bus: cross-worker sharing of learned refinement rounds.

The paper's group-solving insight — an unviability clause learned
while refining one query prunes the search for its siblings — stops at
a process boundary: worker A's clauses never reach worker B mid-run,
and when A is SIGKILLed its partial search is forfeit.  The bus closes
both gaps with one append-only JSONL file per evaluation (scoped per
task by the program/unit digest in the scope string) carrying the
*completed CEGAR rounds* of every worker::

    {"type": "bus_header", "version": 1}
    {"type": "round", "scope": "bench:analysis:unit:group",
     "round": n, "queries": [...], "worker": w,
     "record": <search-journal round record>, "sha256": ...}

A worker publishes each successful round as it finishes (between CEGAR
rounds, right where the search journal records it); a sibling that
later re-executes the *same task* — a retry, a steal of an expired
lease, or a task already claimed in a resumed log — drains matching
rounds instead of re-running their forward fixpoints.  A first attempt
of a task never reads the bus: nobody can have published for its scope
yet.
Crucially, a drained round is **never trusted**: it is replayed
through the driver's one replay step (``_Search.replay`` in
:mod:`repro.core.tracer`, shared with journal resume and the
warm-start replay tier), which checks the record's group ids and
round index, recomputes the minimum-cost abstraction on this
process's own store and compares it with the recorded one, checks
that each survivor's clauses refute it before any of them can prune
the search, and compares the end-of-round exhausted list.  A record
that fails those checks, or does not decode, raises
:class:`ClauseFeedMismatch` and the importer falls back to solving the
group cold.

Only ``"ok"`` rounds travel: budget and error outcomes are
wall-clock-dependent (re-running them may legitimately differ), and
``"impossible"`` rounds are a single cheap MinCostSAT call — not worth
the coupling.

The bus is a sealed durable log (:mod:`repro.robust.durablelog`;
``docs/ROBUSTNESS.md``, "Durable logs").  A publish reads only the
file's tail and parses at most its final line, to cut a torn one; it
never checksums or indexes what other workers wrote.  A handle reads
the bus only when a task drains it, from where its previous read
ended.  Publishing is strictly best-effort — any IO error disables the
feed for the rest of the task rather than failing the evaluation.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.robust.durablelog import DurableLog
from repro.robust.journal import RecordedRound

__all__ = [
    "BUS_VERSION",
    "ClauseBus",
    "ClauseFeed",
    "ClauseFeedMismatch",
    "load_bus_records",
]

BUS_VERSION = 1


class ClauseFeedMismatch(ValueError):
    """A drained round failed re-validation against this process's own
    viability store — the import is discarded, never trusted."""


def _log(path: str) -> DurableLog:
    return DurableLog(path, "bus", BUS_VERSION, sealed=True)


def load_bus_records(path: str) -> List[dict]:
    """Every intact record of a clause-bus log, checksums verified."""
    return _log(path).read()


class ClauseBus:
    """One process's handle on the shared round log.

    A worker keeps one handle for all its tasks.  An append reads only
    the file's tail; reads are lock-free and go on from where this
    handle's previous read ended, so an append never skips rounds the
    handle has not read yet.  The rounds a handle published are
    indexed as it appends them, so it finds them without reading.
    """

    def __init__(self, path: str, worker: str, fresh: bool = False):
        self.path = path
        self.worker = worker
        self._mutex = threading.Lock()
        self._log = _log(path)
        #: Rounds this handle read or published; the first copy of a
        #: key is kept (rounds are deterministic per scope, so later
        #: duplicates are identical anyway).
        self._rounds: Dict[Tuple[str, int, Tuple[str, ...]], dict] = {}
        self.published = 0
        self.dropped = 0
        self.disabled = False
        try:
            with self._mutex:
                self._log.open(fresh=fresh, read=False)
        except OSError:
            self.disabled = True

    # -- shared-file plumbing ----------------------------------------------

    def _ingest(self, record: dict) -> None:
        if record.get("type") != "round":
            return
        key = (
            record["scope"],
            int(record["round"]),
            tuple(record["queries"]),
        )
        self._rounds.setdefault(key, record)

    def _read(self) -> None:
        for record in self._log.read():
            self._ingest(record)

    # -- the bus protocol ---------------------------------------------------

    def publish(
        self, scope: str, round_index: int, queries: Sequence[str], record: dict
    ) -> bool:
        """Durably publish one completed round (best-effort: IO errors
        disable the bus and count as drops, never raise).  A round this
        handle already published or read is not appended again."""
        if self.disabled:
            self.dropped += 1
            return False
        key = (scope, int(round_index), tuple(queries))
        try:
            with self._mutex:
                if key in self._rounds:
                    return False
                self._rounds[key] = self._log.append(
                    {
                        "type": "round",
                        "scope": scope,
                        "round": int(round_index),
                        "queries": list(queries),
                        "worker": self.worker,
                        "record": record,
                        "t": time.time(),
                    }
                )
                self.published += 1
                return True
        except OSError:
            self.disabled = True
            self.dropped += 1
            return False

    def fetch(
        self, scope: str, round_index: int, queries: Sequence[str]
    ) -> Optional[dict]:
        """The published round record for ``(scope, round, queries)``,
        or ``None``.  Lock-free read; IO errors disable the bus."""
        if self.disabled:
            return None
        key = (scope, int(round_index), tuple(queries))
        found = self._rounds.get(key)
        if found is not None:
            return found["record"]
        try:
            with self._mutex:
                self._read()
        except OSError:
            self.disabled = True
            return None
        found = self._rounds.get(key)
        return None if found is None else found["record"]

    def rounds_for(self, scope: str) -> List[dict]:
        """All published round records for a scope, in round order."""
        try:
            with self._mutex:
                self._read()
        except OSError:
            self.disabled = True
        matching = [
            record
            for (record_scope, _idx, _qs), record in self._rounds.items()
            if record_scope == scope
        ]
        return sorted(matching, key=lambda record: int(record["round"]))


class ClauseFeed:
    """A single task's view of the bus, handed to the tracer.

    The feed is a round source like a resumed journal: the tracer asks
    :meth:`recorded_round` before solving each round — a hit means a
    sibling already finished that exact round for this scope and the
    record can be replayed through the re-validation path — and calls
    :meth:`publish` after recording each successful round.
    ``replay=False`` (a task's first attempt, which nobody can have
    published for) makes :meth:`recorded_round` answer ``None`` without
    reading the bus.
    """

    def __init__(self, bus: ClauseBus, scope: str, replay: bool = True):
        self.bus = bus
        self.scope = scope
        self.replay = replay
        self.imported = 0
        self.published = 0

    def recorded_round(
        self, round_index: int, queries: Sequence[str]
    ) -> Optional[RecordedRound]:
        if not self.replay:
            return None
        record = self.bus.fetch(self.scope, round_index, queries)
        if record is None:
            return None
        self.imported += 1
        return RecordedRound(record)

    def publish(self, record: dict) -> None:
        if record.get("outcome") != "ok":
            return  # budget/error rounds are timing-dependent; skip
        if self.bus.publish(
            self.scope, int(record["round"]), record["queries"], record
        ):
            self.published += 1

    def counters(self) -> dict:
        return {"imported": self.imported, "published": self.published}
