"""One durable, append-only JSONL log: the crash discipline shared by
the eval checkpoint, the search journal, the knowledge store, the lease
log and the clause bus.

This module is the only code that opens one of those logs for append,
takes the cross-process lock, applies the torn-tail rule, computes or
verifies a record checksum, or rewrites or audits a log.  Each log keeps
only its record schema, its in-memory index and its protocol.  The rule
(restated for operators in ``docs/ROBUSTNESS.md``, "Durable logs"):

* **Records.**  A log holds one JSON object per newline-terminated
  line.  Its first record is its header, ``{"type": "<name>_header",
  "version": N, ...}``; a header of another version makes the log
  unreadable.
* **Torn tail.**  Only the final line can be a crash artifact, meaning
  it has no newline or is not a JSON object.  Readers skip it, and the
  next append first cuts exactly those bytes.  A damaged line before it
  is corruption, and reading it raises.
* **Checksums.**  A record that carries ``sha256`` must match
  :func:`record_checksum`.  A record without one, such as a legacy store
  entry or any checkpoint or journal record, is accepted.  A *sealed*
  log gives every record it writes, its header included, a ``sha256``.
* **Appends.**  Take ``flock`` on ``path + ".lock"``, cut the torn
  tail, write the record, ``fsync``.  Every append opens and closes its
  own file handle.
* **Rewrites.**  Write a temp file, fsync it, rename it over the log,
  then fsync the directory, so a kill at any instant leaves the
  complete old log or the complete new one.  The fault sites
  ``<name>.compact.write``, ``<name>.compact.rename`` and
  ``<name>.compact.done`` mark the three windows.
* **Errors.**  Corruption of any kind raises :class:`LogCorruption`, a
  ``ValueError``.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import threading
from typing import Iterator, List, Optional, Tuple

from repro.robust import faults

__all__ = ["DurableLog", "LogCorruption", "audit", "record_checksum"]

#: Bytes read per step when an append looks back for the final line.
_TAIL_BLOCK = 16384

#: What :func:`_parse` returns for a whitespace-only line: skipped by
#: readers, never a torn tail.
_BLANK = object()


class LogCorruption(ValueError):
    """A log is damaged in a way a crash cannot explain: a damaged line
    before the final one, a checksum mismatch, or a header of an
    unsupported version."""


def record_checksum(record: dict) -> str:
    """sha256 over the record's sorted-keys JSON, with the ``sha256``
    field itself excluded."""
    body = {key: value for key, value in record.items() if key != "sha256"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _parse(line: bytes):
    """The JSON object on ``line`` (its newline stripped), ``_BLANK``,
    or ``None`` when the line is not a JSON object."""
    if not line.strip():
        return _BLANK
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def _encode(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"


class DurableLog:
    """One handle on the log at ``path``, named ``name`` (its header
    type is ``name + "_header"``).  A ``sealed`` handle gives every
    record it writes a ``sha256``.

    ``offset`` is the end of the last intact line this handle has read:
    :meth:`read` goes on from there, and an append that finds the file
    ending there moves it past the record it wrote.  An append that
    finds records this handle has not read leaves it, so the next read
    still returns them.  Reads take no lock."""

    def __init__(
        self, path: str, name: str, version: int, sealed: bool = False
    ):
        self.path = path
        self.name = name
        self.kind = name + "_header"
        self.version = version
        self.sealed = sealed
        self.offset = 0
        self._mutex = threading.RLock()
        self._locked = False

    # -- reading -------------------------------------------------------------

    def read(self) -> List[dict]:
        """The records past ``offset`` (a missing file is empty), which
        then moves past them; a torn final line is left unread.  Raises
        :class:`LogCorruption`."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset)
                data = handle.read()
        except FileNotFoundError:
            return []
        lines = data.split(b"\n")
        # lines[-1] follows the last newline: empty, or a torn tail.
        final = len(lines) - 2 if not lines[-1] else -1
        records: List[dict] = []
        position = self.offset
        for index in range(len(lines) - 1):
            line = lines[index]
            record = _parse(line)
            if record is None:
                if index == final:
                    break
                raise LogCorruption(
                    f"{self.path}: corrupt record at byte {position} "
                    "(not a trailing crash artifact)"
                )
            if record is not _BLANK:
                self._check(record, position)
                records.append(record)
            position += len(line) + 1
        self.offset = position
        return records

    def _check(self, record: dict, position: int) -> None:
        stored = record.get("sha256")
        if stored is not None and stored != record_checksum(record):
            raise LogCorruption(
                f"{self.path}: record at byte {position} fails its checksum"
            )
        version = record.get("version")
        if record.get("type") == self.kind and version != self.version:
            raise LogCorruption(
                f"{self.path}: unsupported {self.name} version {version!r}"
            )

    # -- writing -------------------------------------------------------------

    @contextlib.contextmanager
    def lock(self) -> Iterator[None]:
        """Hold the exclusive cross-process lock on ``path + ".lock"``:
        a sidecar, so a rewrite can replace the log while holding it.
        Re-entrant within one thread; other threads of this handle
        wait."""
        with self._mutex:
            if self._locked:
                yield
                return
            fd = os.open(self.path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                self._locked = True
                yield
            finally:
                self._locked = False
                os.close(fd)

    def open(
        self, fresh: bool = False, read: bool = True, **fields
    ) -> List[dict]:
        """Under the lock: empty the log when ``fresh``, read it on
        from ``offset`` when ``read``, cut a torn tail, and write the
        header (carrying ``fields``) into an empty log.  Returns the
        records read."""
        with self.lock():
            if fresh:
                with open(self.path, "wb"):
                    pass
                self.offset = 0
            records = self.read() if read else []
            with open(self.path, "a+b") as handle:
                empty = self._cut_torn_tail(handle) == 0
            if empty:
                self.append(self._header(**fields))
        return records

    def _header(self, **fields) -> dict:
        return {"type": self.kind, "version": self.version, **fields}

    def append(self, record: dict) -> dict:
        """Durably append ``record`` (sealed, when the log is); returns
        the record as written."""
        record = self._seal(record)
        line = _encode(record)
        with self.lock(), open(self.path, "a+b") as handle:
            end = self._cut_torn_tail(handle)
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        if end == self.offset:
            self.offset = end + len(line)
        return record

    def _seal(self, record: dict) -> dict:
        if not self.sealed:
            return record
        sealed = dict(record)
        sealed["sha256"] = record_checksum(record)
        return sealed

    def _cut_torn_tail(self, handle) -> int:
        """Cut the file's final line if it is torn; returns the intact
        end.  Reads back only to the final line's start, and never
        before ``offset``, which ends an intact line."""
        end = handle.seek(0, os.SEEK_END)
        if end == self.offset:
            return end
        floor = self.offset if self.offset < end else 0
        start, tail = end, b""
        while start > floor:
            step = max(floor, start - _TAIL_BLOCK)
            handle.seek(step)
            tail = handle.read(start - step) + tail
            start = step
            newline = tail.rfind(b"\n", 0, len(tail) - 1)
            if newline >= 0:
                start += newline + 1
                tail = tail[newline + 1:]
                break
        if tail.endswith(b"\n") and _parse(tail[:-1]) is not None:
            return end
        handle.truncate(start)
        return start

    def rewrite(self, records: List[dict]) -> None:
        """Atomically replace the log with a header and ``records``
        (sealed, when the log is), under the lock.  The handle then
        reads the new log from its start."""
        tmp = self.path + ".compact.tmp"
        with self.lock():
            with open(tmp, "wb") as handle:
                handle.write(_encode(self._seal(self._header())))
                faults.inject(f"{self.name}.compact.write")
                for record in records:
                    handle.write(_encode(self._seal(record)))
                handle.flush()
                os.fsync(handle.fileno())
            faults.inject(f"{self.name}.compact.rename")
            os.replace(tmp, self.path)
            directory = os.open(
                os.path.dirname(os.path.abspath(self.path)), os.O_RDONLY
            )
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
            faults.inject(f"{self.name}.compact.done")
            self.offset = 0


def audit(
    path: str, name: str, version: int
) -> Tuple[List[Tuple[int, dict, Optional[bool]]], List[str], bool]:
    """Check a whole log without raising; returns ``(records, problems,
    torn_tail)``.

    ``records`` holds ``(line number, record, sealed)`` for every line
    that is a JSON object, ``sealed`` being ``True`` when its checksum
    matches, ``False`` when it does not and ``None`` when it carries
    none.  The problems are a missing file, a damaged line before the
    final one, a checksum mismatch, a first record that is not the
    header, a second header, an unsupported version, and a log with no
    record and no torn tail.  A torn tail is reported, not a problem."""
    kind = name + "_header"
    if not os.path.exists(path):
        return [], [f"{path}: no such file"], False
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    torn = bool(lines[-1])
    records: List[Tuple[int, dict, Optional[bool]]] = []
    problems: List[str] = []
    for index, line in enumerate(lines[:-1]):
        number = index + 1
        record = _parse(line)
        if record is _BLANK:
            continue
        if record is None:
            if index == len(lines) - 2 and not torn:
                torn = True
                continue
            problems.append(
                f"line {number}: corrupt interior record "
                "(not a trailing crash artifact)"
            )
            continue
        sealed = None
        if record.get("sha256") is not None:
            sealed = record["sha256"] == record_checksum(record)
            if not sealed:
                problems.append(
                    f"line {number}: checksum mismatch "
                    "(content altered after it was written)"
                )
        if record.get("type") == kind:
            if records:
                problems.append(f"line {number}: duplicate {kind}")
            if record.get("version") != version:
                problems.append(
                    f"line {number}: unsupported {name} version "
                    f"{record.get('version')!r}"
                )
        elif not records:
            problems.append(f"line {number}: first record is not a {kind}")
        records.append((number, record, sealed))
    if not records and not torn:
        problems.append(f"{path}: empty {name} log (no header record)")
    return records, problems, torn
