"""The persistent cross-run knowledge store.

One JSONL file, written fsync-per-record through the torn-tail-tolerant
machinery shared with :mod:`repro.robust.checkpoint` (a SIGKILL
mid-write loses at most the entry in flight, and the torn tail is
truncated away before the next append).  Each entry is the complete
knowledge of one finished search::

    {"type": "store_header", "version": 1}
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

**Shared mode** (``KnowledgeStore(path, shared=True)``) is what the
daemon's supervised worker pool uses: several processes append to one
file.  Every append takes an exclusive ``flock`` on ``path + ".lock"``,
re-syncs against what other writers appended meanwhile, truncates any
dead writer's torn tail, then writes and fsyncs its own record —
single-writer-at-a-time, so warm-tier hits stay bit-identical across
processes.  Lookups first :meth:`refresh` the in-memory index from the
file's tail (an ``os.stat`` when nothing changed); an inode change
means someone compacted the file, which triggers a full reload.

**Compaction** (:meth:`compact`, surfaced as ``repro store compact``)
rewrites the latest-wins survivors — the newest entry per exact key
and per ``(source, kind)`` seed key — to a temp file, fsyncs it *and*
the directory, then atomically renames over the original.  A SIGKILL
at any instant leaves either the complete old file or the complete new
one, never a torn hybrid; the fault sites ``store.compact.write`` /
``store.compact.rename`` / ``store.compact.done`` let the kill-matrix
test pin the kill to each window.  :func:`verify_store` re-checks the
version gate, record structure, and per-entry checksums offline.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.pretty import pretty_command, pretty_program
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs
from repro.robust import faults
from repro.robust.checkpoint import JsonlAppender, scan_jsonl
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


def entry_checksum(entry: dict) -> str:
    """Content checksum of one entry: SHA-256 over its canonical JSON
    with the ``sha256`` field itself excluded.  ``verify`` recomputes
    it to catch bit rot and hand-editing; entries recorded before the
    field existed simply lack it and verify structurally only."""
    body = {key: value for key, value in entry.items() if key != "sha256"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")
    ).hexdigest()


class _StoreLock:
    """Exclusive cross-process lock on ``path + ".lock"``.

    A separate lock file — never the store itself — so compaction can
    atomically replace the store file while holding the lock (locking
    the data file would leave the lock attached to the dead inode)."""

    def __init__(self, path: str):
        self.path = path + ".lock"
        self._fd: Optional[int] = None

    def __enter__(self) -> "_StoreLock":
        self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        fcntl.flock(self._fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc) -> bool:
        fcntl.flock(self._fd, fcntl.LOCK_UN)
        os.close(self._fd)
        self._fd = None
        return False


def _fsync_dir(path: str) -> None:
    """Persist a rename: fsync the directory entry's parent."""
    fd = os.open(path or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _header_line() -> str:
    return (
        json.dumps({"type": "store_header", "version": STORE_VERSION},
                   sort_keys=True)
        + "\n"
    )


class KnowledgeStore:
    """Crash-safe on-disk knowledge of every search a session ran.

    Loading tolerates a torn trailing line (the crash the appender is
    built for) but raises on interior corruption, exactly like the
    checkpoint and journal layers it shares :func:`scan_jsonl` with.

    ``shared=True`` switches appends to flock-coordinated writes and
    lookups to tail-refreshing reads — the multi-process daemon mode
    (see the module doc).  The default single-process mode keeps the
    original :class:`~repro.robust.checkpoint.JsonlAppender` path.
    """

    def __init__(self, path: str, shared: bool = False):
        self.path = path
        self.shared = shared
        #: Exact-match index: (digest, config, query ids) -> entry.
        self._exact: Dict[Tuple, dict] = {}
        #: Seed index: (source, client kind) -> latest entry.
        self._by_source: Dict[Tuple[str, str], dict] = {}
        #: ``id(entry) -> (entry, its recorded rounds)`` for the indexed
        #: entries a replay has read; see :meth:`recorded_rounds`.
        self._replays: Dict[int, Tuple[dict, List[RecordedRound]]] = {}
        self.entries_loaded = 0
        #: Entry records physically in the file, superseded ones
        #: included — the compaction trigger's numerator comes from
        #: comparing this against the live index size.
        self.file_entries = 0
        self.compactions = 0
        self.hits = 0
        self.misses = 0
        self._offset = 0  # byte offset just past the last indexed line
        self._ino: Optional[int] = None
        self._appender: Optional[JsonlAppender] = None
        if shared:
            with _StoreLock(path):
                self._load_locked()
        else:
            self._load_locked()
            self._appender = JsonlAppender(path)
            if self._appender.fresh:
                self._appender.append(
                    {"type": "store_header", "version": STORE_VERSION}
                )
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
        live = len(self._live_file_keys())
        return max(0, self.file_entries - live) / self.file_entries

    def _live_file_keys(self) -> set:
        # Live = latest for an exact key (forgotten entries still
        # occupy their file slot, so count by index key, not identity).
        return set(self._all_exact_keys)

    # -- loading and cross-process refresh --------------------------------

    def _reset_index(self) -> None:
        self._exact.clear()
        self._by_source.clear()
        self._replays.clear()
        self._all_exact_keys: set = set()
        self.file_entries = 0

    def _load_locked(self) -> None:
        """(Re)build the index from the whole file.  Under the lock in
        shared mode; single-process mode has no writers to race."""
        self._reset_index()
        records, intact = scan_jsonl(self.path)
        for record in records:
            self._ingest(record)
        self._offset = intact
        if self.shared:
            # Create-or-repair under the lock: write the header into a
            # fresh file, truncate a dead writer's torn tail away.
            size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
            if not records and size == 0:
                with open(self.path, "a") as handle:
                    handle.write(_header_line())
                    handle.flush()
                    os.fsync(handle.fileno())
                self._offset = len(_header_line())
            elif size > intact:
                with open(self.path, "r+b") as handle:
                    handle.truncate(intact)
        self._ino = os.stat(self.path).st_ino if os.path.exists(self.path) else None

    def _ingest(self, record: dict) -> None:
        rtype = record.get("type")
        if rtype == "store_header":
            version = record.get("version")
            if version != STORE_VERSION:
                raise ValueError(
                    f"{self.path}: unsupported store version {version!r}"
                )
        elif rtype == "entry":
            self._index(record)
            self.file_entries += 1
        # unknown record types are forward-compatible noise

    def refresh(self) -> int:
        """Shared mode: fold in entries other processes appended since
        the last look; returns how many new records were indexed.  An
        inode change (the file was compacted) or a shrink triggers a
        full reload.  No-op in single-process mode."""
        if not self.shared:
            return 0
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            return 0
        if stat.st_ino != self._ino or stat.st_size < self._offset:
            before = self.file_entries
            with _StoreLock(self.path):
                self._load_locked()
            return max(0, self.file_entries - before)
        if stat.st_size == self._offset:
            return 0
        return self._scan_tail()

    def _scan_tail(self) -> int:
        """Index complete lines appended past ``_offset``.  A trailing
        line without its newline (or mid-fsync garbage) is left alone —
        either its writer is about to finish it, or the next locked
        append will truncate it."""
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        added = 0
        for line in data.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break
            try:
                record = json.loads(line)
            except ValueError:
                break
            if not isinstance(record, dict):
                break
            self._offset += len(line)
            self._ingest(record)
            added += 1
        return added

    # -- lookups -----------------------------------------------------------

    def _index(self, entry: dict) -> None:
        key = self._entry_key(entry)
        superseded = self._exact.get(key)
        if superseded is not None:
            self._replays.pop(id(superseded), None)
        self._exact[key] = entry
        self._all_exact_keys.add(key)
        source = entry.get("source")
        kind = (entry.get("client") or {}).get("kind")
        if source and kind:
            self._by_source[(source, kind)] = entry

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
        entry["sha256"] = entry_checksum(entry)
        if self.shared:
            self._append_shared(entry)
        else:
            self._appender.append(entry)
            self._index(entry)
            self.file_entries += 1
        return entry

    def _append_shared(self, entry: dict) -> None:
        """One locked append: sync against other writers, repair any
        torn tail, write+fsync, advance the local index."""
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        with _StoreLock(self.path):
            try:
                stat = os.stat(self.path)
            except FileNotFoundError:
                stat = None
            if (
                stat is None
                or stat.st_ino != self._ino
                or stat.st_size < self._offset
            ):
                self._load_locked()
            else:
                self._scan_tail()
                if self._offset < stat.st_size:
                    # Whatever sits past the last intact line is a dead
                    # writer's torn tail (live writers finish their
                    # line before releasing the lock).
                    with open(self.path, "r+b") as handle:
                        handle.truncate(self._offset)
            with open(self.path, "ab") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            self._offset += len(line)
            self._index(entry)
            self.file_entries += 1

    def forget(self, entry: dict) -> None:
        """Drop a stale entry from the in-memory index (it stays in the
        file, shadowed by whatever is recorded next), so a failed warm
        start is not retried forever."""
        self._replays.pop(id(entry), None)
        key = self._entry_key(entry)
        if self._exact.get(key) is entry:
            del self._exact[key]
        source = entry.get("source")
        kind = (entry.get("client") or {}).get("kind")
        if source and kind and self._by_source.get((source, kind)) is entry:
            del self._by_source[(source, kind)]

    # -- compaction --------------------------------------------------------

    def compact(self) -> dict:
        """Rewrite the file keeping only latest-wins survivors; returns
        ``{"entries_before", "entries_after", "dropped", "bytes_before",
        "bytes_after"}``.

        Crash-safe by construction: survivors go to ``path.compact.tmp``
        first, the temp file is fsync'd, then atomically renamed over
        the store (and the directory fsync'd).  A SIGKILL anywhere in
        between leaves the complete old file or the complete new one.
        Runs under the store lock, so live shared-mode writers simply
        wait; their next lookup notices the new inode and reloads."""
        with _StoreLock(self.path):
            records, _intact = scan_jsonl(self.path)
            entries = [r for r in records if r.get("type") == "entry"]
            for record in records:
                if record.get("type") == "store_header":
                    version = record.get("version")
                    if version != STORE_VERSION:
                        raise ValueError(
                            f"{self.path}: unsupported store version "
                            f"{version!r}"
                        )
            bytes_before = (
                os.path.getsize(self.path) if os.path.exists(self.path) else 0
            )
            last_exact: Dict[Tuple, int] = {}
            last_seed: Dict[Tuple[str, str], int] = {}
            for position, entry in enumerate(entries):
                last_exact[self._entry_key(entry)] = position
                source = entry.get("source")
                kind = (entry.get("client") or {}).get("kind")
                if source and kind:
                    last_seed[(source, kind)] = position
            keep = sorted(set(last_exact.values()) | set(last_seed.values()))
            tmp = self.path + ".compact.tmp"
            with open(tmp, "w") as handle:
                handle.write(_header_line())
                faults.inject("store.compact.write")
                for position in keep:
                    entry = dict(entries[position])
                    entry.setdefault("sha256", entry_checksum(entry))
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            faults.inject("store.compact.rename")
            os.replace(tmp, self.path)
            _fsync_dir(os.path.dirname(os.path.abspath(self.path)))
            faults.inject("store.compact.done")
            stats = {
                "entries_before": len(entries),
                "entries_after": len(keep),
                "dropped": len(entries) - len(keep),
                "bytes_before": bytes_before,
                "bytes_after": os.path.getsize(self.path),
            }
            if self.shared:
                self._load_locked()
        if not self.shared:
            # The appender's handle points at the replaced inode;
            # reopen on the new file and rebuild the index from it.
            self._appender.close()
            self._load_locked()
            self._appender = JsonlAppender(self.path)
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
        if self._appender is not None:
            self._appender.close()

    def __enter__(self) -> "KnowledgeStore":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def verify_store(path: str) -> Tuple[List[str], dict]:
    """Offline integrity check behind ``repro store verify``.

    Returns ``(problems, summary)``.  Problems: a missing or
    unsupported header, interior (non-trailing) corruption, entries
    missing required fields, and entries whose recorded ``sha256``
    no longer matches their content.  A torn trailing line and
    entries recorded before checksums existed are *noted* in the
    summary, not problems — both are expected in healthy stores."""
    problems: List[str] = []
    summary = {
        "path": path,
        "bytes": 0,
        "records": 0,
        "entries": 0,
        "checksummed": 0,
        "legacy_entries": 0,
        "torn_tail": False,
    }
    if not os.path.exists(path):
        problems.append(f"{path}: no such file")
        return problems, summary
    with open(path, "rb") as handle:
        data = handle.read()
    summary["bytes"] = len(data)
    lines = data.splitlines(keepends=True)
    saw_header = False
    for index, line in enumerate(lines):
        is_last = index == len(lines) - 1
        if not line.endswith(b"\n"):
            if is_last:
                summary["torn_tail"] = True
                break
            problems.append(f"line {index + 1}: unterminated interior line")
            break
        text = line.decode("utf-8", errors="replace").strip()
        if not text:
            continue
        record = None
        try:
            parsed = json.loads(text)
            if isinstance(parsed, dict):
                record = parsed
        except ValueError:
            record = None
        if record is None:
            if is_last:
                summary["torn_tail"] = True
                break
            problems.append(
                f"line {index + 1}: corrupt interior record "
                "(not a trailing crash artifact)"
            )
            continue
        summary["records"] += 1
        rtype = record.get("type")
        if summary["records"] == 1:
            if rtype != "store_header":
                problems.append("line 1: first record is not a store_header")
            elif record.get("version") != STORE_VERSION:
                problems.append(
                    f"line 1: unsupported store version "
                    f"{record.get('version')!r}"
                )
            saw_header = True
            continue
        if rtype == "store_header":
            problems.append(f"line {index + 1}: duplicate store_header")
        elif rtype == "entry":
            summary["entries"] += 1
            digest = record.get("digest")
            if not (isinstance(digest, str) and len(digest) == 64):
                problems.append(
                    f"line {index + 1}: entry without a sha256 digest key"
                )
            for field, kind in (
                ("queries", list), ("rounds", list),
                ("results", dict), ("config", list),
            ):
                if not isinstance(record.get(field), kind):
                    problems.append(
                        f"line {index + 1}: entry field {field!r} "
                        f"is not a {kind.__name__}"
                    )
            recorded = record.get("sha256")
            if recorded is None:
                summary["legacy_entries"] += 1
            elif recorded != entry_checksum(record):
                problems.append(
                    f"line {index + 1}: entry checksum mismatch "
                    "(content altered after recording)"
                )
            else:
                summary["checksummed"] += 1
    if not saw_header and not summary["torn_tail"]:
        problems.append(f"{path}: empty store (no header record)")
    return problems, summary
