"""The lease-based work-stealing scheduler.

:func:`run_leased` runs a parallel evaluation's tasks: instead of the
parent assigning fixed batches, every worker process loops over one
shared durable :class:`~repro.robust.leases.LeaseLog`, claiming the
first unowned task, heartbeating while it works, and durably
completing — so the schedule emerges from the log, survives any
worker's death, and a straggler's remaining tasks are picked up by
whoever finishes first.

Failure handling, in order of preference:

* a task that **raises** releases its lease voluntarily — the next
  claim is a retry (up to ``max_attempts``), charged against the task;
* a worker that is **SIGKILLed** is noticed by the parent supervisor
  (``Process.is_alive()``), which force-releases its live leases
  immediately (``by="parent"``) so siblings reclaim without waiting
  out the TTL;
* a worker that **hangs** (alive but silent) simply stops
  heartbeating; once ``lease_ttl`` passes, a sibling's ``claim_next``
  steals the lease outright;
* a task that **outlives** ``unit_timeout`` (its worker heartbeats
  from a separate thread, so only the claim's age shows it) gets its
  worker killed by the parent, which then releases the lease as for a
  dead worker, with a timeout error.

Every claim counts against ``max_attempts``, however it ended.  All
four paths converge on at-least-once execution with
first-durable-completion-wins dedup (see :mod:`repro.robust.leases`),
so the caller's merge never sees a task twice and never sees two
disagreeing results.

The parent is a supervisor, not a scheduler: it spawns the workers,
tails the log through a :class:`~repro.robust.leases.LeaseWatcher` to
re-emit ``lease_claimed`` / ``lease_expired`` / ``lease_stolen``
events into its own trace, force-releases dead workers' leases,
respawns one *clean* worker (no fault plan — chaos plans are not
reinstalled on respawn) if every worker has died or gone silent while
work remains, replaces each worker it kills over ``unit_timeout`` with
one on the same plan, and finally collects the winning payloads off
the log.  Each replacement follows a lost claim, so the spawns are
bounded; once none is left and no worker runs, the remaining tasks are
reported failed.

Worker names carry a token unique to the run, so a resumed run never
mistakes a dead run's claim for one of its own live ones: that claim
expires after ``lease_ttl`` and is stolen.

Fault injection: each worker installs its plan per task with
``attempt = claim.attempt - 1`` (the 0-based unit-attempt number rules
are written against) and resets hit counters per task, so a rule's
``at``/``times`` count arrivals within one task.  Two
scheduler-specific sites exist:
``"scheduler.task"`` fires on every claimed task, and a ``corrupt``
match on ``"scheduler.hang"`` makes the worker stop heartbeating and
sleep forever — the deterministic stand-in for a livelocked process
that chaos tests use to exercise TTL-based stealing.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import trace as obs
from repro.robust import faults as robust_faults
from repro.robust.faults import FaultPlan, fault_scope
from repro.robust.leases import (
    Claim,
    LeaseConsistencyError,
    LeaseLog,
    LeaseWatcher,
    TaskKey,
)

__all__ = ["SchedulerResult", "run_leased"]

#: ``execute(task, attempt) -> (payload, fingerprint)`` — the pure
#: task body.  ``attempt`` is the claim's 1-based attempt number, which
#: grows over the log's whole life: above 1 the task ran before (a
#: retry, a steal, or a claim in a resumed log), so it may find work
#: that attempt left behind.  ``payload`` must be a JSON-able dict (it
#: is stored in the lease log); ``fingerprint`` is its semantic
#: checksum (see :func:`repro.robust.leases.payload_fingerprint`),
#: asserted bit-identical across duplicate completions.
ExecuteFn = Callable[[TaskKey, int], Tuple[dict, str]]


@dataclass
class SchedulerResult:
    """What one :func:`run_leased` run produced."""

    #: Winning payload per durably-completed task.
    payloads: Dict[TaskKey, dict]
    #: Last recorded error per task left without a durable completion
    #: (it exhausted ``max_attempts``, or no worker was left to run it).
    failed: Dict[TaskKey, str]
    #: Claim count per task (1 = first try; >1 = retried or stolen).
    attempts: Dict[TaskKey, int] = field(default_factory=dict)
    #: Tasks already complete in the (resumed) log before any worker ran.
    resumed: int = 0
    #: Scheduler counters: claims, steals, expiries, duplicates,
    #: respawns, workers.
    stats: Dict[str, int] = field(default_factory=dict)


def _task_label(task: TaskKey) -> str:
    return ":".join(str(part) for part in task)


def _worker_main(
    name: str,
    lease_path: str,
    tasks: Sequence[TaskKey],
    execute: ExecuteFn,
    plan: Optional[FaultPlan],
    heartbeat_interval: float,
    lease_ttl: float,
    poll_interval: float,
    max_attempts: int,
) -> None:
    log = LeaseLog(lease_path, worker=name)
    stop_beats = threading.Event()

    def beat() -> None:
        # Never calls inject(): the ambient fault scope is process-wide
        # and a heartbeat firing mid-task would perturb the main
        # thread's deterministic hit counters.
        while not stop_beats.wait(heartbeat_interval):
            try:
                log.heartbeat()
            except Exception:
                return

    beats = threading.Thread(target=beat, name=f"{name}-beat", daemon=True)
    beats.start()
    try:
        while True:
            claim: Optional[Claim] = log.claim_next(
                tasks, lease_ttl, max_attempts
            )
            if claim is None:
                statuses = log.snapshot(tasks, lease_ttl, max_attempts)
                if all(
                    status in ("complete", "failed")
                    for status in statuses.values()
                ):
                    return
                time.sleep(poll_interval)
                continue
            if plan is not None:
                # Fresh hit counters per task: a rule's ``at`` and
                # ``times`` count arrivals within one task.
                plan.reset()
            try:
                with fault_scope(plan, attempt=claim.attempt - 1):
                    if robust_faults.inject("scheduler.hang") == "corrupt":
                        stop_beats.set()
                        while True:  # a livelocked worker: alive, silent
                            time.sleep(60.0)
                    robust_faults.inject("scheduler.task")
                    payload, fingerprint = execute(claim.task, claim.attempt)
                log.complete(claim.task, claim.attempt, payload, fingerprint)
            except LeaseConsistencyError:
                raise  # determinism is broken — die loudly
            except Exception as exc:
                log.release(claim.task, claim.attempt, error=repr(exc))
    finally:
        stop_beats.set()


def run_leased(
    tasks: Sequence[TaskKey],
    execute: ExecuteFn,
    lease_path: str,
    workers: int = 2,
    resume: bool = False,
    heartbeat_interval: float = 0.25,
    lease_ttl: float = 5.0,
    poll_interval: float = 0.05,
    max_attempts: int = 3,
    unit_timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    worker_faults: Optional[Sequence[Optional[Sequence[str]]]] = None,
) -> SchedulerResult:
    """Run ``tasks`` to completion on ``workers`` stealing processes.

    ``tasks`` is the claim order (workers race for the earliest
    claimable task; the flock serialises the race).  ``execute`` runs
    in the worker and must be a pure function of the task key — fork
    start method, so closures over parent state work, and state a
    closure keeps lives per worker across its tasks.  ``resume=True``
    keeps an existing lease log and skips its completed tasks;
    otherwise the log is truncated fresh.  ``unit_timeout`` bounds one
    claim's wall-clock time (``None`` = unbounded).

    ``fault_plan`` ships to every worker; ``worker_faults`` adds
    per-worker rule specs by worker index (chaos tests use it to kill
    one worker and hang another while a third stays clean).
    """
    if not tasks:
        return SchedulerResult(payloads={}, failed={}, stats={"workers": 0})
    monitor = LeaseLog(lease_path, worker="parent", fresh=not resume)
    done = monitor.completed_payloads()
    if all(task in done for task in tasks):
        # A resumed log that already holds every completion.
        return _collect(monitor, tasks, len(done), {"workers": 0})
    forgiven = monitor.forgive_failures(tasks) if resume else 0
    # A resumed run tails only what it appends itself: the dead run's
    # claims are neither counted nor re-emitted.
    watcher = LeaseWatcher(lease_path, start_at_end=resume)
    context = multiprocessing.get_context("fork")
    workers = max(1, workers)
    stats = {
        "workers": workers,
        "spawned": 0,
        "claims": 0,
        "steals": 0,
        "expiries": 0,
        "respawns": 0,
        "forgiven": forgiven,
    }
    # A run charges at most ``len(tasks) * max_attempts`` claims, and
    # every spawn after the first ``workers`` replaces a worker lost
    # with one, so this bounds the spawns.
    spawn_cap = workers + len(tasks) * max_attempts

    def plan_for(index: Optional[int]) -> Optional[FaultPlan]:
        if index is None:
            return None
        rules = list(fault_plan.rules) if fault_plan is not None else []
        if worker_faults is not None and index < len(worker_faults):
            specs = worker_faults[index]
            if specs:
                rules.extend(FaultPlan.from_specs(list(specs)).rules)
        return FaultPlan(rules) if rules else None

    processes: Dict[str, multiprocessing.Process] = {}
    #: The fault-plan index each worker was started with.
    index_of: Dict[str, int] = {}
    beats: Dict[str, float] = {}
    run = os.urandom(4).hex()  # tells this run's workers from a dead run's

    def spawn(index: Optional[int]) -> str:
        """Start a worker with worker ``index``'s fault plan, or a
        clean one for ``None``."""
        role = "worker" if index is not None else "respawn"
        name = f"{role}-{stats['spawned']}@{run}"
        process = context.Process(
            target=_worker_main,
            name=name,
            args=(
                name,
                lease_path,
                list(tasks),
                execute,
                plan_for(index),
                heartbeat_interval,
                lease_ttl,
                poll_interval,
                max_attempts,
            ),
            daemon=True,
        )
        process.start()
        processes[name] = process
        if index is not None:
            index_of[name] = index
        beats[name] = time.time()
        stats["spawned"] += 1
        return name

    released_leases: Dict[Tuple[TaskKey, int], str] = {}
    #: The claim each worker of this run is working on, and its time.
    holding: Dict[str, Tuple[TaskKey, int, float]] = {}
    #: The claim each worker killed over ``unit_timeout`` held.
    overdue: Dict[str, Tuple[TaskKey, int]] = {}
    reaped: set = set()
    tracing = obs.active()

    def pump_events() -> None:
        for record in watcher.poll():
            rtype = record.get("type")
            if rtype == "heartbeat":
                worker = record.get("worker", "")
                beats[worker] = max(beats.get(worker, 0.0), time.time())
                continue
            if rtype == "release":
                key = (
                    tuple(record["task"]),
                    int(record.get("attempt", 0)),
                )
                released_leases[key] = record.get("by", "")
                holding.pop(record.get("by", ""), None)
                continue
            if rtype == "complete":
                worker = record.get("worker", "")
                beats[worker] = max(beats.get(worker, 0.0), time.time())
                holding.pop(worker, None)
                continue
            if rtype != "claim":
                continue
            worker = record.get("worker", "")
            beats[worker] = max(beats.get(worker, 0.0), time.time())
            stats["claims"] += 1
            task = tuple(record.get("task", ()))
            holding[worker] = (
                task,
                int(record.get("attempt", 1)),
                float(record.get("t", time.time())),
            )
            label = _task_label(task)
            if tracing:
                obs.event(
                    "lease_claimed",
                    task=label,
                    worker=worker,
                    attempt=record.get("attempt"),
                )
            stolen_from = record.get("stolen_from")
            if not stolen_from:
                continue
            stats["steals"] += 1
            prior = (task, int(record.get("attempt", 1)) - 1)
            if released_leases.get(prior, None) is None:
                # Nobody released the prior lease: the holder went
                # silent and the TTL expired under it.
                stats["expiries"] += 1
                if tracing:
                    obs.event(
                        "lease_expired",
                        task=label,
                        worker=stolen_from,
                        reason="heartbeat_timeout",
                    )
            if tracing:
                obs.event(
                    "lease_stolen",
                    task=label,
                    stolen_from=stolen_from,
                    worker=worker,
                    attempt=record.get("attempt"),
                )

    def kill_overdue() -> None:
        """Kill every worker whose claim is older than ``unit_timeout``
        and start one with the same fault plan in its place, so the run
        keeps its width; :func:`release_dead_leases` then frees the
        claim with a timeout error."""
        now = time.time()
        for name, (task, attempt, since) in list(holding.items()):
            process = processes.get(name)
            if (
                process is None
                or name in overdue
                or now - since <= unit_timeout
                or not process.is_alive()
            ):
                continue
            # Under the flock the worker can neither complete this claim
            # nor take another, so the kill lands on the claim checked.
            with monitor.lock():
                if monitor.holder(task, lease_ttl) != (name, attempt):
                    # Completed, released or expired since the last
                    # poll; a new claim shows up in the next one.
                    del holding[name]
                    continue
                process.kill()
            overdue[name] = (task, attempt)
            if stats["spawned"] < spawn_cap:
                replacement = spawn(index_of.get(name))
                stats["respawns"] += 1
                if tracing:
                    obs.event(
                        "worker_respawned",
                        worker=replacement,
                        reason="unit_timeout",
                    )

    def release_dead_leases() -> None:
        dead = [
            name
            for name, process in processes.items()
            if not process.is_alive() and name not in reaped
        ]
        if not dead:
            return
        for name in dead:
            reaped.add(name)
        for task in tasks:
            held = monitor.holder(task, lease_ttl)
            if held is None:
                continue
            holder, attempt = held
            if holder not in dead:
                continue
            stats["expiries"] += 1
            timed_out = overdue.get(holder) == (task, attempt)
            monitor.release(
                task,
                attempt,
                error=(
                    f"timeout after {unit_timeout}s on task "
                    f"{_task_label(task)} (attempt {attempt})"
                    if timed_out
                    else f"worker {holder!r} exited while holding the lease"
                ),
                by="parent",
            )
            if tracing:
                obs.event(
                    "lease_expired",
                    task=_task_label(task),
                    worker=holder,
                    reason="timeout" if timed_out else "worker_exit",
                )

    # Move the parent's heap into the permanent generation before
    # forking: no collection in a worker then rewrites the GC headers of
    # inherited objects, so their pages stay shared instead of being
    # copied.
    gc.freeze()
    try:
        for index in range(workers):
            spawn(index)
        while True:
            pump_events()
            if unit_timeout is not None:
                kill_overdue()
            release_dead_leases()
            statuses = monitor.snapshot(tasks, lease_ttl, max_attempts)
            if all(
                status in ("complete", "failed")
                for status in statuses.values()
            ):
                break
            now = time.time()
            effective = [
                name
                for name, process in processes.items()
                if process.is_alive()
                and now - beats.get(name, 0.0)
                < max(lease_ttl, 2 * heartbeat_interval)
            ]
            if not effective:
                if stats["spawned"] >= spawn_cap:
                    # Nothing left to run the remaining tasks: they
                    # are reported failed rather than waited on.
                    break
                # Every worker is dead or silent with work remaining:
                # bring up one clean replacement (no chaos plan — a
                # respawned worker models operator recovery).
                stats["respawns"] += 1
                name = spawn(None)
                if tracing:
                    obs.event(
                        "worker_respawned",
                        worker=name,
                        reason="no_live_workers",
                    )
            time.sleep(poll_interval)
        pump_events()
    finally:
        deadline = time.time() + max(lease_ttl, 1.0)
        for process in processes.values():
            process.join(timeout=max(0.0, deadline - time.time()))
        for process in processes.values():
            if process.is_alive():
                process.kill()  # hung workers do not get a say
                process.join(timeout=5.0)
        gc.unfreeze()
    return _collect(monitor, tasks, len(done), stats)


def _collect(
    monitor: LeaseLog,
    tasks: Sequence[TaskKey],
    resumed: int,
    stats: Dict[str, int],
) -> SchedulerResult:
    """The run's result as the lease log records it."""
    payloads = monitor.completed_payloads()
    failed: Dict[TaskKey, str] = {}
    attempts_of: Dict[TaskKey, int] = {}
    for task in tasks:
        attempts_of[task] = monitor.attempts_of(task)
        if task in payloads:
            continue
        error = monitor.last_error(task)
        failed[task] = error if error is not None else (
            f"no durable completion after {attempts_of[task]} attempt(s)"
        )
    return SchedulerResult(
        payloads=payloads,
        failed=failed,
        attempts=attempts_of,
        resumed=resumed,
        stats=stats,
    )
