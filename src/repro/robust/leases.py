"""The durable lease log behind the work-stealing scheduler.

A parallel evaluation decomposes into *tasks* (query groups — see
:mod:`repro.bench.parallel`).  Instead of handing each worker a fixed
batch, every worker loops over one shared, crash-safe, append-only
JSONL file — the lease log — and *claims* the first task that nobody
is working on.  The log records the full lifecycle::

    {"type": "lease_header", "version": 1}
    {"type": "claim", "task": [b, a, i, g], "worker": w, "attempt": n,
     "stolen_from": w2 | null, "t": seconds, "sha256": ...}
    {"type": "heartbeat", "worker": w, "t": seconds, "sha256": ...}
    {"type": "complete", "task": [...], "worker": w, "attempt": n,
     "fingerprint": f, "payload": {...}, "t": seconds, "sha256": ...}
    {"type": "release", "task": [...], "worker": w, "by": who,
     "attempt": n, "error": str, "t": seconds, "sha256": ...}
    {"type": "amnesty", "task": [...], "worker": w, "upto": n,
     "t": seconds, "sha256": ...}

Liveness is heartbeat-based: a claim is *live* while its worker's most
recent heartbeat (or the claim itself) is younger than the lease TTL.
A worker that is SIGKILLed or hangs simply stops heartbeating; once
the TTL passes, a sibling's :meth:`LeaseLog.claim_next` reclaims the
task with ``stolen_from`` naming the previous holder.  A worker whose
task *raised* releases its lease explicitly (``by`` = the worker
itself), which makes the next claim a retry, not a steal; the parent
scheduler force-releases leases of children it has watched die
(``by`` = ``"parent"``) so recovery does not wait out the TTL.

Execution is therefore at-least-once, and made safe by deterministic
dedup: the **first durable completion wins**.  A second completion of
the same task must carry a bit-identical semantic fingerprint (the
caller supplies it — for the bench harness, records with wall-clock
zeroed plus certificates); a mismatch raises
:class:`LeaseConsistencyError`, because two attempts of a pure task
disagreeing is corruption, not a race.

Attempt numbering is monotone across the log's whole life, but a
*resumed* run starts with a fresh retry budget: the parent appends an
``amnesty`` record per incomplete task (see
:meth:`LeaseLog.forgive_failures`), and "failed" means "exhausted
``max_attempts`` *since the last amnesty*" — otherwise a task that
timed out under yesterday's bug could never be retried by today's
``--resume``.

The lease log is a sealed durable log (:mod:`repro.robust.durablelog`;
``docs/ROBUSTNESS.md``, "Durable logs"): every record carries a
``sha256``, and because several *processes* append concurrently, each
operation reads what siblings appended and appends under the log's
``flock``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.robust.durablelog import DurableLog, audit, record_checksum
from repro.robust.durablelog import LogCorruption as LeaseCorruption

__all__ = [
    "Claim",
    "LEASE_VERSION",
    "LeaseConsistencyError",
    "LeaseCorruption",
    "LeaseLog",
    "LeaseWatcher",
    "TaskKey",
    "lease_summary",
    "load_lease_records",
    "payload_fingerprint",
    "record_checksum",
    "verify_lease_log",
]

LEASE_VERSION = 1

#: ``(benchmark, analysis, unit index, group index)`` — the scheduler's
#: unit of work.  Group index ``0`` with one group per unit degenerates
#: to the checkpoint layer's whole-unit granularity.
TaskKey = Tuple[str, str, int, int]


class LeaseConsistencyError(RuntimeError):
    """Two completions of one task disagreed, or a resumed log does not
    describe this evaluation — determinism is broken, fail loudly."""


def payload_fingerprint(payload: dict, volatile: Sequence[str] = ()) -> str:
    """Semantic checksum of a completion payload: the record checksum
    of the payload with the ``volatile`` top-level keys removed.
    Callers name the fields an honest re-execution may legitimately
    change (wall-clock, cache counters, trace events); everything else
    must be bit-identical across attempts of the same task."""
    return record_checksum(
        {k: v for k, v in payload.items() if k not in volatile}
    )


def _log(path: str) -> DurableLog:
    return DurableLog(path, "lease", LEASE_VERSION, sealed=True)


def load_lease_records(path: str) -> List[dict]:
    """Every intact record of a lease log (missing file = empty),
    checksums verified."""
    return _log(path).read()


@dataclass(frozen=True)
class Claim:
    """One successful :meth:`LeaseLog.claim_next`."""

    task: TaskKey
    attempt: int  # 1-based claim count for this task
    stolen_from: Optional[str]  # previous holder, when reclaimed


class LeaseLog:
    """One process's handle on the shared lease log.

    Thread-safe (the heartbeat thread and the task loop share one
    instance); every operation reads what siblings appended and
    appends under the log's flock.
    """

    def __init__(self, path: str, worker: str, fresh: bool = False):
        self.path = path
        self.worker = worker
        self._mutex = threading.Lock()
        self._log = _log(path)
        self._claims: Dict[TaskKey, dict] = {}
        self._attempts: Dict[TaskKey, int] = {}
        self._completes: Dict[TaskKey, dict] = {}
        self._releases: Dict[Tuple[TaskKey, int], dict] = {}
        self._amnesty: Dict[TaskKey, int] = {}
        self._beats: Dict[str, float] = {}
        #: Local operation counters (this process's view).
        self.claims = 0
        self.steals = 0
        self.duplicates = 0
        self.heartbeats = 0
        with self._mutex:
            for record in self._log.open(fresh=fresh):
                self._ingest(record)

    # -- shared-file plumbing (call under mutex + flock) -------------------

    def _ingest(self, record: dict) -> None:
        rtype = record.get("type")
        if rtype == "claim":
            task = tuple(record["task"])
            self._claims[task] = record
            self._attempts[task] = max(
                self._attempts.get(task, 0), int(record["attempt"])
            )
        elif rtype == "heartbeat":
            worker = record["worker"]
            self._beats[worker] = max(
                self._beats.get(worker, 0.0), float(record["t"])
            )
        elif rtype == "complete":
            task = tuple(record["task"])
            # First durable completion wins; later records for the
            # same task are the at-least-once duplicates.
            self._completes.setdefault(task, record)
        elif rtype == "release":
            task = tuple(record["task"])
            self._releases[(task, int(record["attempt"]))] = record
        elif rtype == "amnesty":
            task = tuple(record["task"])
            self._amnesty[task] = max(
                self._amnesty.get(task, 0), int(record["upto"])
            )
        # unknown record types are forward-compatible noise

    def _sync_locked(self) -> None:
        for record in self._log.read():
            self._ingest(record)

    def _append_locked(self, record: dict) -> None:
        self._ingest(self._log.append(record))

    # -- task-state queries -------------------------------------------------

    def _live_claim(
        self, task: TaskKey, ttl: float, now: float
    ) -> Optional[dict]:
        claim = self._claims.get(task)
        if claim is None:
            return None
        if task in self._completes:
            return None  # fulfilled, not held — nothing left to expire
        if (task, int(claim["attempt"])) in self._releases:
            return None
        worker = claim["worker"]
        last = max(float(claim["t"]), self._beats.get(worker, 0.0))
        if now - last >= ttl:
            return None
        return claim

    def _status(
        self, task: TaskKey, ttl: float, max_attempts: int, now: float
    ) -> str:
        if task in self._completes:
            return "complete"
        if self._live_claim(task, ttl, now) is not None:
            return "running"
        spent = self._attempts.get(task, 0) - self._amnesty.get(task, 0)
        if spent >= max_attempts:
            return "failed"
        return "pending"

    def snapshot(
        self,
        tasks: Sequence[TaskKey],
        ttl: float,
        max_attempts: int,
        now: Optional[float] = None,
    ) -> Dict[TaskKey, str]:
        """Per-task status after folding in siblings' appends."""
        with self._mutex, self._log.lock():
            self._sync_locked()
            now = time.time() if now is None else now
            return {
                task: self._status(task, ttl, max_attempts, now)
                for task in tasks
            }

    # -- the protocol -------------------------------------------------------

    def claim_next(
        self,
        tasks: Sequence[TaskKey],
        ttl: float,
        max_attempts: int,
        now: Optional[float] = None,
    ) -> Optional[Claim]:
        """Atomically claim the first claimable task in ``tasks`` order
        (fresh, retry after a voluntary release, or steal of an expired
        lease); ``None`` when nothing is claimable right now."""
        with self._mutex, self._log.lock():
            self._sync_locked()
            now = time.time() if now is None else now
            for task in tasks:
                if self._status(task, ttl, max_attempts, now) != "pending":
                    continue
                previous = self._claims.get(task)
                stolen_from: Optional[str] = None
                if previous is not None:
                    release = self._releases.get(
                        (task, int(previous["attempt"]))
                    )
                    voluntary = (
                        release is not None
                        and release.get("by") == previous["worker"]
                    )
                    if not voluntary:
                        # The previous holder went silent (TTL expiry)
                        # or was declared dead by the parent: this
                        # claim is a steal, not a retry.
                        stolen_from = previous["worker"]
                attempt = self._attempts.get(task, 0) + 1
                self._append_locked(
                    {
                        "type": "claim",
                        "task": list(task),
                        "worker": self.worker,
                        "attempt": attempt,
                        "stolen_from": stolen_from,
                        "t": now,
                    }
                )
                self.claims += 1
                if stolen_from is not None:
                    self.steals += 1
                return Claim(
                    task=task, attempt=attempt, stolen_from=stolen_from
                )
            return None

    def heartbeat(self, now: Optional[float] = None) -> None:
        with self._mutex, self._log.lock():
            self._sync_locked()
            self._append_locked(
                {
                    "type": "heartbeat",
                    "worker": self.worker,
                    "t": time.time() if now is None else now,
                }
            )
            self.heartbeats += 1

    def complete(
        self,
        task: TaskKey,
        attempt: int,
        payload: dict,
        fingerprint: str,
    ) -> bool:
        """Record a completion; returns ``True`` when this completion
        is the durable winner, ``False`` when an earlier one already
        was (in which case the fingerprints are asserted identical —
        at-least-once execution is only safe because the task is a
        pure function of its key)."""
        with self._mutex, self._log.lock():
            self._sync_locked()
            existing = self._completes.get(task)
            if existing is not None:
                if existing.get("fingerprint") != fingerprint:
                    raise LeaseConsistencyError(
                        f"task {task!r}: duplicate completion disagrees "
                        f"with the durable winner (attempt "
                        f"{existing.get('attempt')} by "
                        f"{existing.get('worker')!r}) — determinism broken"
                    )
                self.duplicates += 1
                return False
            self._append_locked(
                {
                    "type": "complete",
                    "task": list(task),
                    "worker": self.worker,
                    "attempt": attempt,
                    "fingerprint": fingerprint,
                    "payload": payload,
                    "t": time.time(),
                }
            )
            return True

    def release(
        self,
        task: TaskKey,
        attempt: int,
        error: str,
        by: Optional[str] = None,
    ) -> None:
        """Give a lease back: voluntarily (``by`` defaults to this
        worker — the task raised) or on another's behalf (the parent
        releasing a dead child's leases, ``by="parent"``)."""
        with self._mutex, self._log.lock():
            self._sync_locked()
            if task in self._completes:
                return
            self._append_locked(
                {
                    "type": "release",
                    "task": list(task),
                    "worker": self.worker,
                    "by": by if by is not None else self.worker,
                    "attempt": attempt,
                    "error": error,
                    "t": time.time(),
                }
            )

    def forgive_failures(self, tasks: Sequence[TaskKey]) -> int:
        """Grant every incomplete task with prior claims a fresh retry
        budget (append one ``amnesty`` record per task).  Called by the
        parent when a run *resumes* an existing log: completed tasks
        stay done, but a task that exhausted ``max_attempts`` in the
        previous run — or died mid-flight — is claimable again instead
        of being failed forever.  Returns how many were forgiven."""
        forgiven = 0
        with self._mutex, self._log.lock():
            self._sync_locked()
            for task in tasks:
                attempts = self._attempts.get(task, 0)
                if task in self._completes or attempts == 0:
                    continue
                if self._amnesty.get(task, 0) >= attempts:
                    continue
                self._append_locked(
                    {
                        "type": "amnesty",
                        "task": list(task),
                        "worker": self.worker,
                        "upto": attempts,
                        "t": time.time(),
                    }
                )
                forgiven += 1
        return forgiven

    def holder(self, task: TaskKey, ttl: float, now: Optional[float] = None):
        """``(worker, attempt)`` of the live claim, or ``None``."""
        with self._mutex, self._log.lock():
            self._sync_locked()
            claim = self._live_claim(
                task, ttl, time.time() if now is None else now
            )
            if claim is None:
                return None
            return claim["worker"], int(claim["attempt"])

    def completed_payloads(self) -> Dict[TaskKey, dict]:
        """Payloads of every durably-won completion (first wins)."""
        with self._mutex, self._log.lock():
            self._sync_locked()
            return {
                task: record["payload"]
                for task, record in self._completes.items()
            }

    def attempts_of(self, task: TaskKey) -> int:
        return self._attempts.get(task, 0)

    def last_error(self, task: TaskKey) -> Optional[str]:
        """The most recent release error recorded for ``task``."""
        best: Optional[dict] = None
        for (released_task, attempt), record in self._releases.items():
            if released_task != task:
                continue
            if best is None or attempt > int(best["attempt"]):
                best = record
        return None if best is None else best.get("error")

    def close(self) -> None:  # symmetry with the other appenders
        pass

    def __enter__(self) -> "LeaseLog":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class LeaseWatcher:
    """Lock-free incremental reader for monitors (the parent
    scheduler's event loop, ``repro top --leases``).

    Reads never take the flock (a durable-log read skips the one torn
    line a concurrent append can expose), so watching never delays the
    workers."""

    def __init__(self, path: str, start_at_end: bool = False):
        self.path = path
        self._log = _log(path)
        if start_at_end:
            self.poll()

    def poll(self) -> List[dict]:
        """Records appended since the last poll (checksum-verified)."""
        return self._log.read()


def lease_summary(
    records: Sequence[dict],
    ttl: Optional[float] = None,
    now: Optional[float] = None,
) -> dict:
    """Fold a record list into per-task state + scheduler counters —
    what ``repro top --leases`` renders and ``verify`` reports."""
    tasks: Dict[str, dict] = {}
    beats: Dict[str, float] = {}
    counters = {
        "claims": 0,
        "steals": 0,
        "releases": 0,
        "completions": 0,
        "duplicates": 0,
        "heartbeats": 0,
    }
    for record in records:
        rtype = record.get("type")
        if rtype == "heartbeat":
            counters["heartbeats"] += 1
            worker = record.get("worker", "?")
            beats[worker] = max(beats.get(worker, 0.0), float(record["t"]))
            continue
        if rtype not in ("claim", "complete", "release"):
            continue
        key = ":".join(str(part) for part in record.get("task", []))
        state = tasks.setdefault(
            key,
            {
                "status": "pending",
                "worker": None,
                "attempts": 0,
                "stolen": 0,
                "claimed_at": None,
            },
        )
        if rtype == "claim":
            counters["claims"] += 1
            state["attempts"] = max(
                state["attempts"], int(record.get("attempt", 0))
            )
            state["worker"] = record.get("worker")
            state["claimed_at"] = float(record.get("t", 0.0))
            if state["status"] != "complete":
                state["status"] = "running"
            if record.get("stolen_from"):
                counters["steals"] += 1
                state["stolen"] += 1
        elif rtype == "release":
            counters["releases"] += 1
            if state["status"] != "complete":
                state["status"] = "released"
        else:
            counters["completions"] += 1
            if state["status"] != "complete":
                state["status"] = "complete"
                state["worker"] = record.get("worker")
            else:
                counters["duplicates"] += 1
    if ttl is not None:
        at = time.time() if now is None else now
        for state in tasks.values():
            if state["status"] == "running":
                worker = state["worker"]
                last = max(
                    state["claimed_at"] or 0.0, beats.get(worker, 0.0)
                )
                if at - last >= ttl:
                    state["status"] = "expired"
    by_status: Dict[str, int] = {}
    for state in tasks.values():
        by_status[state["status"]] = by_status.get(state["status"], 0) + 1
    return {
        "tasks": tasks,
        "workers": beats,
        "counters": counters,
        "by_status": by_status,
    }


def verify_lease_log(path: str) -> Tuple[List[str], dict]:
    """Structural + checksum audit of a lease log; returns ``(problems,
    summary)`` with an empty problem list meaning the log is sound."""
    lines, problems, _torn = audit(path, "lease", LEASE_VERSION)
    if not lines:
        return problems, {}
    records = [record for _number, record, _sealed in lines]
    claims: Dict[Tuple[str, int], dict] = {}
    completes: Dict[str, dict] = {}
    for index, record in enumerate(records):
        rtype = record.get("type")
        where = f"record {index}"
        if rtype == "claim":
            key = ":".join(str(p) for p in record.get("task", []))
            attempt = int(record.get("attempt", 0))
            if attempt < 1:
                problems.append(f"{where}: claim with attempt {attempt}")
            if (key, attempt) in claims:
                problems.append(
                    f"{where}: duplicate claim for {key} attempt {attempt}"
                )
            previous = max(
                (a for (k, a) in claims if k == key), default=0
            )
            if attempt != previous + 1:
                problems.append(
                    f"{where}: claim attempt {attempt} for {key} does not "
                    f"follow attempt {previous}"
                )
            claims[(key, attempt)] = record
        elif rtype == "complete":
            key = ":".join(str(p) for p in record.get("task", []))
            attempt = int(record.get("attempt", 0))
            if (key, attempt) not in claims:
                problems.append(
                    f"{where}: completion of {key} attempt {attempt} "
                    "without a matching claim"
                )
            first = completes.get(key)
            if first is None:
                completes[key] = record
            elif first.get("fingerprint") != record.get("fingerprint"):
                problems.append(
                    f"{where}: duplicate completion of {key} disagrees "
                    "with the durable winner"
                )
        elif rtype == "release":
            key = ":".join(str(p) for p in record.get("task", []))
            attempt = int(record.get("attempt", 0))
            if (key, attempt) not in claims:
                problems.append(
                    f"{where}: release of {key} attempt {attempt} "
                    "without a matching claim"
                )
    return problems, lease_summary(records)
