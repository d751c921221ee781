"""The persistent cross-run knowledge store.

One sealed durable log (:mod:`repro.robust.durablelog`;
``docs/ROBUSTNESS.md``, "Durable logs"): a SIGKILL mid-write loses at
most the entry in flight, and loading checks every entry's checksum.
Each entry is the complete knowledge of one finished search::

    {"type": "store_header", "version": 1, "sha256": hexdigest}
    {"type": "entry",
     "digest": sha256,                # program + client fingerprint
     "source": str | null,            # stable submission id (file path,
                                      # "bench:<name>:<analysis>:<i>", ...)
     "client": {...},                 # client fingerprint (see
                                      # session.describe_client)
     "config": [...],                 # config_key() of the search
     "queries": [qid, ...],
     "rounds": [...],                 # journal-style round records
     "results": {qid: {"verdict": str, "abstraction": [...] | null,
                       "cost": int | null, "iterations": int,
                       "annotation_digest": sha256 | null}},
     "witnesses": {qid: [{"abstraction": [...], "k": int | null,
                          "trace": [...], "clauses": [...]}, ...]},
     "sha256": hexdigest}             # content checksum over the rest

Lookup is two-tier, mirroring :class:`~repro.core.tracer.WarmStart`:

* :meth:`lookup` — exact ``(digest, config, query set)`` match: the
  recorded rounds replay bit-identically (verdicts, certificates, and
  journal records equal to a cold search, zero forward fixpoints);
* :meth:`lookup_seed` — same ``source`` and client kind but a changed
  digest (a lightly-edited program): the recorded witnesses seed the
  new search's viability stores after per-witness validation by the
  session.

Later entries shadow earlier ones for the same key (append-only file,
last-wins index), so re-recording after an edit needs no rewriting.
The store registers with the metrics registry as ``knowledge_store``;
its hit/miss counters surface like every other cache's.

An indexed entry keeps its rounds as the replay step reads them
(:meth:`KnowledgeStore.recorded_rounds`): each round decodes on the
entry's first replay and is read decoded from then on, until the entry
is forgotten, superseded or compacted away.  The file and every record
in it stay JSON.

Several processes may hold handles on one file (the daemon's
supervised worker pool does): every append takes the log's ``flock``
and first indexes what other writers appended meanwhile, so warm-tier
hits stay bit-identical across processes.  Lookups first
:meth:`~KnowledgeStore.refresh` the in-memory index from the file's
tail (an ``os.stat`` when nothing changed); an inode change means
someone compacted the file, which triggers a full reload.

**Compaction** (:meth:`~KnowledgeStore.compact`, surfaced as ``repro
store compact``) rewrites the latest-wins survivors — the newest entry
per exact key and per ``(source, kind)`` seed key — with the durable
log's atomic rewrite, so a SIGKILL at any instant leaves the complete
old file or the complete new one; the fault sites
``store.compact.write`` / ``store.compact.rename`` /
``store.compact.done`` let the kill-matrix test pin the kill to each
window.  :func:`verify_store` re-checks the version gate, record
structure, and per-entry checksums offline.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.pretty import pretty_command, pretty_program
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs
from repro.robust.durablelog import DurableLog, audit
from repro.robust.durablelog import record_checksum as entry_checksum
from repro.robust.journal import RecordedRound

__all__ = [
    "KnowledgeStore",
    "canonical_program_text",
    "config_key",
    "entry_checksum",
    "program_digest",
    "verify_store",
]

STORE_VERSION = 1


def canonical_program_text(program) -> str:
    """A deterministic textual rendering of any client program shape:
    a structured :class:`~repro.lang.ast.Program` (the pretty-printer
    is the parser's concrete syntax), a single
    :class:`~repro.lang.cfg.Cfg`, or an interprocedural
    :class:`~repro.dataflow.interproc.ProcGraph` (each procedure's CFG
    rendered under its name, main first)."""
    procedures = getattr(program, "procedures", None)
    if procedures is not None and hasattr(program, "main"):
        parts = [f"main {program.main}"]
        for name in sorted(procedures):
            parts.append(f"proc {name}")
            parts.append(_cfg_text(procedures[name]))
        return "\n".join(parts)
    if hasattr(program, "edges") and hasattr(program, "entry"):
        return _cfg_text(program)
    return pretty_program(program)


def _cfg_text(cfg) -> str:
    lines = [f"entry {cfg.entry} exit {cfg.exit}"]
    for edge in cfg.edges:
        command = (
            "eps" if edge.command is None else pretty_command(edge.command)
        )
        lines.append(f"{edge.src} -[{command}]-> {edge.dst}")
    return "\n".join(lines)


def program_digest(program, client_info: dict) -> str:
    """SHA-256 over the canonical program text and the client
    fingerprint — the store key.  Two submissions share a digest
    exactly when the search they describe is the same: same program
    semantics, same analysis parameters."""
    digest = hashlib.sha256()
    digest.update(canonical_program_text(program).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(
        json.dumps(client_info, sort_keys=True, default=str).encode("utf-8")
    )
    return digest.hexdigest()


def config_key(config) -> Tuple:
    """The part of a :class:`~repro.core.tracer.TracerConfig` that a
    recorded search depends on.  ``engine`` is deliberately excluded:
    the interpreted and compiled engines are bit-identical (gated in
    CI), so knowledge recorded under one replays under the other."""
    return (
        config.k,
        config.k_min,
        config.max_iterations,
        config.max_cubes,
        config.max_steps,
        config.max_seconds,
        config.budget_check_every,
        config.strict,
    )


class KnowledgeStore:
    """Crash-safe on-disk knowledge of every search a session ran.

    Loading skips a torn trailing line and raises on any other damage,
    a failed entry checksum included (the durable-log rule).  Any
    number of handles, in any number of processes, may share one file.
    """

    def __init__(self, path: str):
        self.path = path
        self._log = DurableLog(path, "store", STORE_VERSION, sealed=True)
        #: Exact-match index: (digest, config, query ids) -> entry.
        self._exact: Dict[Tuple, dict] = {}
        #: Seed index: (source, client kind) -> latest entry.
        self._by_source: Dict[Tuple[str, str], dict] = {}
        #: ``id(entry) -> (entry, its recorded rounds)`` for the indexed
        #: entries a replay has read; see :meth:`recorded_rounds`.
        self._replays: Dict[int, Tuple[dict, List[RecordedRound]]] = {}
        #: Entry records physically in the file, superseded ones
        #: included — the compaction trigger's numerator comes from
        #: comparing this against the live index size.
        self.file_entries = 0
        self.compactions = 0
        self.hits = 0
        self.misses = 0
        self._ino: Optional[int] = None
        self._load()
        self.entries_loaded = self.file_entries
        obs_metrics.register_cache("knowledge_store", self)

    def __len__(self) -> int:
        return len(self._exact)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def superseded_ratio(self) -> float:
        """Fraction of on-file entries shadowed by a later recording —
        the daemon's periodic-compaction trigger."""
        if not self.file_entries:
            return 0.0
        # Live = latest for an exact key (forgotten entries still
        # occupy their file slot, so count by index key, not identity).
        live = len(self._all_exact_keys)
        return max(0, self.file_entries - live) / self.file_entries

    # -- loading and cross-process refresh --------------------------------

    def _load(self) -> List[dict]:
        """(Re)build the index from the whole file, under the lock;
        returns the file's records."""
        with self._log.lock():
            self._exact.clear()
            self._by_source.clear()
            self._replays.clear()
            self._all_exact_keys: set = set()
            self.file_entries = 0
            self._log.offset = 0
            records = self._log.open()
            for record in records:
                self._ingest(record)
            self._ino = os.stat(self.path).st_ino
        return records

    def _ingest(self, record: dict) -> None:
        if record.get("type") == "entry":
            self._index(record)
            self.file_entries += 1
        # headers and unknown record types carry no knowledge

    def refresh(self) -> int:
        """Fold in entries other handles appended since the last look;
        returns how many entries were added.  A missing file, an inode
        change (the file was compacted) or a shrink triggers a full
        reload."""
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            stat = None
        before = self.file_entries
        if (
            stat is None
            or stat.st_ino != self._ino
            or stat.st_size < self._log.offset
        ):
            self._load()
        elif stat.st_size > self._log.offset:
            for record in self._log.read():
                self._ingest(record)
        return max(0, self.file_entries - before)

    # -- lookups -----------------------------------------------------------

    def _index(self, entry: dict) -> None:
        key = self._entry_key(entry)
        superseded = self._exact.get(key)
        if superseded is not None:
            self._replays.pop(id(superseded), None)
        self._exact[key] = entry
        self._all_exact_keys.add(key)
        seed = self._seed_key(entry)
        if seed is not None:
            self._by_source[seed] = entry

    @staticmethod
    def _seed_key(entry: dict) -> Optional[Tuple[str, str]]:
        source = entry.get("source")
        kind = (entry.get("client") or {}).get("kind")
        return (source, kind) if source and kind else None

    @staticmethod
    def _exact_key(digest, config, query_ids) -> Tuple:
        return (digest, tuple(config), tuple(query_ids))

    @classmethod
    def _entry_key(cls, entry: dict) -> Tuple:
        return cls._exact_key(
            entry.get("digest"),
            tuple(entry.get("config") or ()),
            entry.get("queries") or (),
        )

    def lookup(
        self, digest: str, config: Tuple, query_ids: Sequence[str]
    ) -> Optional[dict]:
        """Replay-tier lookup: the entry recorded for exactly this
        ``(digest, config, query set)``, or ``None``.  Counts one hit
        or miss and emits a ``store_hit`` event on success."""
        self.refresh()
        entry = self._exact.get(self._exact_key(digest, config, query_ids))
        if entry is not None:
            self.hits += 1
            if obs.active():
                obs.event(
                    "store_hit",
                    tier="replay",
                    digest=digest[:12],
                    source=entry.get("source"),
                    queries=len(entry.get("queries") or ()),
                    rounds=len(entry.get("rounds") or ()),
                )
            return entry
        self.misses += 1
        return None

    def recorded_rounds(self, entry: dict) -> List[RecordedRound]:
        """``entry``'s rounds as the replay step reads them, one
        :class:`~repro.robust.journal.RecordedRound` per round record.

        An indexed entry keeps the list, so a round the replay step
        decoded once is read decoded by every later replay; forgetting,
        superseding or compacting the entry drops it.  Nothing is
        decoded here: a round that does not decode fails in the replay
        step, which makes the entry stale."""
        # The map holds the entry itself, so its id is not reused.
        kept = self._replays.get(id(entry))
        if kept is not None:
            return kept[1]
        rounds = [RecordedRound(rec) for rec in entry.get("rounds") or ()]
        if self._exact.get(self._entry_key(entry)) is entry:
            self._replays[id(entry)] = (entry, rounds)
        return rounds

    def lookup_seed(
        self, source: Optional[str], client_kind: Optional[str]
    ) -> Optional[dict]:
        """Clause-tier lookup: the latest entry recorded for the same
        submission source and client kind (the lightly-edited-program
        path).  Does not count toward hit/miss — the exact lookup that
        preceded it already counted the miss; a seed hit emits its own
        ``store_hit`` event with ``tier="clauses"``."""
        if not source or not client_kind:
            return None
        self.refresh()
        entry = self._by_source.get((source, client_kind))
        if entry is not None and obs.active():
            obs.event(
                "store_hit",
                tier="clauses",
                digest=(entry.get("digest") or "")[:12],
                source=source,
                queries=len(entry.get("queries") or ()),
            )
        return entry

    # -- recording ---------------------------------------------------------

    def record(
        self,
        digest: str,
        source: Optional[str],
        client_info: dict,
        config: Tuple,
        query_ids: Sequence[str],
        rounds: List[dict],
        results: Dict[str, dict],
        witnesses: Dict[str, List[dict]],
    ) -> dict:
        """Append one finished search's knowledge (fsync'd before
        return) and index it for this process's own lookups."""
        entry = {
            "type": "entry",
            "digest": digest,
            "source": source,
            "client": dict(client_info),
            "config": list(config),
            "queries": list(query_ids),
            "rounds": list(rounds),
            "results": dict(results),
            "witnesses": dict(witnesses),
        }
        with self._log.lock():
            self.refresh()
            entry = self._log.append(entry)
        self._index(entry)
        self.file_entries += 1
        return entry

    def forget(self, entry: dict) -> None:
        """Drop a stale entry from the in-memory index (it stays in the
        file, shadowed by whatever is recorded next), so a failed warm
        start is not retried forever."""
        self._replays.pop(id(entry), None)
        key = self._entry_key(entry)
        if self._exact.get(key) is entry:
            del self._exact[key]
        seed = self._seed_key(entry)
        if seed is not None and self._by_source.get(seed) is entry:
            del self._by_source[seed]

    # -- compaction --------------------------------------------------------

    def compact(self) -> dict:
        """Rewrite the file keeping only latest-wins survivors; returns
        ``{"entries_before", "entries_after", "dropped", "bytes_before",
        "bytes_after"}``.

        The rewrite is the durable log's atomic one, so a SIGKILL at any
        instant leaves the complete old file or the complete new one.
        Runs under the store lock, so other writers simply wait; their
        next lookup notices the new inode and reloads."""
        with self._log.lock():
            entries = [r for r in self._load() if r.get("type") == "entry"]
            keep = [
                entry
                for entry in entries
                if self._exact.get(self._entry_key(entry)) is entry
                or self._by_source.get(self._seed_key(entry)) is entry
            ]
            bytes_before = os.path.getsize(self.path)
            self._log.rewrite(keep)
            stats = {
                "entries_before": len(entries),
                "entries_after": len(keep),
                "dropped": len(entries) - len(keep),
                "bytes_before": bytes_before,
                "bytes_after": os.path.getsize(self.path),
            }
            self._load()
        self.compactions += 1
        if obs.active():
            obs.event("store_compacted", **stats)
        return stats

    def stats(self) -> dict:
        """The ``repro store stats`` summary."""
        self.refresh()
        return {
            "path": self.path,
            "bytes": (
                os.path.getsize(self.path) if os.path.exists(self.path) else 0
            ),
            "file_entries": self.file_entries,
            "live_entries": len(self._exact),
            "sources": len(self._by_source),
            "superseded_ratio": round(self.superseded_ratio, 4),
            "compactions": self.compactions,
        }

    def close(self) -> None:
        """Nothing to release: every append opens its own handle."""

    def __enter__(self) -> "KnowledgeStore":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def verify_store(path: str) -> Tuple[List[str], dict]:
    """Offline integrity check behind ``repro store verify``.

    Returns ``(problems, summary)``.  Problems: everything the durable
    log's audit finds (a missing file, an unsupported or missing header,
    interior corruption, a checksum mismatch) and entries missing
    required fields.  A torn trailing line and entries recorded before
    checksums existed are *noted* in the summary, not problems — both
    are expected in healthy stores."""
    records, problems, torn = audit(path, "store", STORE_VERSION)
    summary = {
        "path": path,
        "bytes": os.path.getsize(path) if os.path.exists(path) else 0,
        "records": len(records),
        "entries": 0,
        "checksummed": 0,
        "legacy_entries": 0,
        "torn_tail": torn,
    }
    for number, record, sealed in records:
        if record.get("type") != "entry":
            continue
        summary["entries"] += 1
        digest = record.get("digest")
        if not (isinstance(digest, str) and len(digest) == 64):
            problems.append(f"line {number}: entry without a sha256 digest key")
        for field, kind in (
            ("queries", list), ("rounds", list),
            ("results", dict), ("config", list),
        ):
            if not isinstance(record.get(field), kind):
                problems.append(
                    f"line {number}: entry field {field!r} "
                    f"is not a {kind.__name__}"
                )
        if sealed is None:
            summary["legacy_entries"] += 1
        elif sealed:
            summary["checksummed"] += 1
    return problems, summary
