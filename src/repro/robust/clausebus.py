"""The clause bus: cross-worker sharing of learned refinement rounds.

The paper's group-solving insight — an unviability clause learned
while refining one query prunes the search for its siblings — stops at
a process boundary in the wave pool: worker A's clauses never reach
worker B mid-run, and when A is SIGKILLed its partial search is
forfeit.  The bus closes both gaps with one append-only JSONL file per
evaluation (scoped per task by the program/unit digest in the scope
string) carrying the *completed CEGAR rounds* of every worker::

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
through :func:`repro.core.tracer.apply_replay`, whose per-survivor
``ViabilityStore.add_clauses`` + ``excludes`` probes re-validate every
imported clause against this process's own store before any of it can
prune the search.  A record that fails re-validation raises
:class:`ClauseFeedMismatch` and the importer falls back to solving the
round cold.

Only ``"ok"`` rounds travel: budget and error outcomes are
wall-clock-dependent (re-running them may legitimately differ), and
``"impossible"`` rounds are a single cheap MinCostSAT call — not worth
the coupling.

Durability discipline matches :mod:`repro.robust.leases`: torn-tail
tolerant incremental scans, truncate-then-append + fsync under an
exclusive flock on a sidecar lock file, and a per-record sha256.  The
append path reads only the file's final bytes — a final line without
its newline is a dead writer's torn tail and is cut off — and never
parses or checksums records other workers wrote; a handle reads the
bus only when a task drains it, from where its previous read ended.
Publishing is strictly best-effort — any IO error disables the feed
for the rest of the task rather than failing the evaluation.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.robust.leases import (
    LeaseCorruption,
    _LeaseLock,
    _scan_from,
    record_checksum,
)

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


def load_bus_records(path: str) -> List[dict]:
    """Every intact record of a clause-bus log, checksums verified."""
    records, _intact = _scan_from(path, 0)
    for index, record in enumerate(records):
        stored = record.get("sha256")
        if stored is not None and stored != record_checksum(record):
            raise LeaseCorruption(f"{path}: record {index} fails its checksum")
    return records


#: Bytes read per step when looking back for the last newline.
_TAIL_BLOCK = 4096


def _cut_torn_tail(handle) -> int:
    """Truncate ``handle``'s file after its last newline; returns the
    intact length.

    Bytes past the last newline are a writer killed mid-append (the
    torn-tail rule of :func:`~repro.robust.leases._scan_from`); cutting
    them keeps the next record from being concatenated onto them.
    Only the tail is read, and no record is parsed."""
    size = handle.seek(0, os.SEEK_END)
    end = size
    while end:
        start = max(0, end - _TAIL_BLOCK)
        handle.seek(start)
        newline = handle.read(end - start).rfind(b"\n")
        if newline >= 0:
            end = start + newline + 1
            break
        end = start
    if end < size:
        handle.truncate(end)
    return end


class ClauseBus:
    """One process's handle on the shared round log.

    A worker keeps one handle for all its tasks.  Writes cut a torn
    tail, append, and fsync under the flock without reading what
    siblings appended; reads are lock-free incremental scans (torn
    tails tolerated) from where this handle's previous read ended, so
    an append never skips rounds the handle has not read yet.
    """

    def __init__(self, path: str, worker: str, fresh: bool = False):
        self.path = path
        self.worker = worker
        self._mutex = threading.Lock()
        #: End of the last record this handle read (appends leave it).
        self._offset = 0
        self._rounds: Dict[Tuple[str, int, Tuple[str, ...]], dict] = {}
        #: Keys this handle appended, for dedup without reading.
        self._appended: Set[Tuple[str, int, Tuple[str, ...]]] = set()
        self.published = 0
        self.dropped = 0
        self.disabled = False
        try:
            with self._mutex, _LeaseLock(path), open(path, "a+b") as handle:
                if fresh:
                    handle.truncate(0)
                if _cut_torn_tail(handle) == 0:
                    self._append(
                        handle, {"type": "bus_header", "version": BUS_VERSION}
                    )
        except OSError:
            self.disabled = True

    # -- shared-file plumbing ----------------------------------------------

    def _ingest(self, record: dict) -> None:
        stored = record.get("sha256")
        if stored is not None and stored != record_checksum(record):
            raise LeaseCorruption(
                f"{self.path}: clause-bus record fails its checksum"
            )
        if record.get("type") != "round":
            return
        key = (
            record["scope"],
            int(record["round"]),
            tuple(record["queries"]),
        )
        # First publication wins; rounds are deterministic per scope so
        # later duplicates are identical anyway.
        self._rounds.setdefault(key, record)

    def _read(self) -> None:
        records, self._offset = _scan_from(self.path, self._offset)
        for record in records:
            self._ingest(record)

    @staticmethod
    def _append(handle, record: dict) -> None:
        record = dict(record)
        record["sha256"] = record_checksum(record)
        handle.write(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
        handle.flush()
        os.fsync(handle.fileno())

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
                if key in self._appended or key in self._rounds:
                    return False
                with _LeaseLock(self.path), open(self.path, "a+b") as handle:
                    _cut_torn_tail(handle)
                    self._append(
                        handle,
                        {
                            "type": "round",
                            "scope": scope,
                            "round": int(round_index),
                            "queries": list(queries),
                            "worker": self.worker,
                            "record": record,
                            "t": time.time(),
                        },
                    )
                self._appended.add(key)
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

    The tracer calls :meth:`drain` before solving each round — a hit
    means a sibling already finished that exact round for this scope
    and the record can be replayed through the re-validation path —
    and :meth:`publish` after recording each successful round.
    ``replay=False`` (a task's first attempt, which nobody can have
    published for) makes :meth:`drain` answer ``None`` without reading
    the bus.
    """

    def __init__(self, bus: ClauseBus, scope: str, replay: bool = True):
        self.bus = bus
        self.scope = scope
        self.replay = replay
        self.imported = 0
        self.published = 0

    def drain(
        self, round_index: int, queries: Sequence[str]
    ) -> Optional[dict]:
        if not self.replay:
            return None
        record = self.bus.fetch(self.scope, round_index, queries)
        if record is not None:
            self.imported += 1
        return record

    def publish(self, record: dict) -> None:
        if record.get("outcome") != "ok":
            return  # budget/error rounds are timing-dependent; skip
        if self.bus.publish(
            self.scope, int(record["round"]), record["queries"], record
        ):
            self.published += 1

    def counters(self) -> dict:
        return {"imported": self.imported, "published": self.published}
