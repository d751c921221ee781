"""Behavioral tests for the lease-based work-stealing scheduler.

Each test drives :func:`repro.robust.scheduler.run_leased` with a
cheap synthetic ``execute`` (no TRACER workload) so the scheduler's
fault paths — retry, steal-on-kill, steal-on-hang, respawn, resume —
are exercised in seconds.  The merge-order property test at the bottom
is the determinism half of the contract: group payloads completing in
any order assemble into the same :class:`EvalResult` export.
"""

import contextlib
import json
import os
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.export import record_to_dict, results_to_dict
from repro.bench.parallel import _merge, _payload_result
from repro.core.stats import CacheCounters, QueryRecord, QueryStatus
from repro.robust.faults import FaultPlan
from repro.robust.scheduler import run_leased

TASKS = [("bench", "typestate", 0, gi) for gi in range(4)]


def _ok(task, attempt=1):
    payload = {"task": list(task), "value": task[3] * 10}
    return payload, f"fp-{task[3]}"


def _lease_path(tmp_path):
    return str(tmp_path / "run.leases")


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise in the parent after ``seconds``; ``run_leased`` then kills
    its workers on the way out (alarms do not survive a fork)."""

    def expire(signum, frame):
        raise TimeoutError(f"run_leased did not finish in {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestRunLeased:
    def test_two_workers_complete_all_tasks(self, tmp_path):
        result = run_leased(
            TASKS, _ok, _lease_path(tmp_path), workers=2,
            heartbeat_interval=0.05, lease_ttl=2.0,
        )
        assert result.failed == {}
        assert sorted(result.payloads) == sorted(TASKS)
        assert result.payloads[TASKS[2]] == {
            "task": list(TASKS[2]), "value": 20,
        }
        assert result.stats["claims"] == len(TASKS)
        assert result.stats["steals"] == 0

    def test_raised_task_is_retried(self, tmp_path):
        # attempt=0 pins the rule to each task's *first* attempt (the
        # plan's hit counters reset per task), so every task fails once
        # and succeeds on retry.
        plan = FaultPlan.from_specs(["scheduler.task:raise:attempt=0"])
        result = run_leased(
            TASKS, _ok, _lease_path(tmp_path), workers=2,
            heartbeat_interval=0.05, lease_ttl=2.0, fault_plan=plan,
        )
        assert result.failed == {}
        assert sorted(result.payloads) == sorted(TASKS)
        assert all(result.attempts[task] == 2 for task in TASKS)

    def test_killed_worker_leases_are_stolen(self, tmp_path):
        # Worker 0 SIGKILLs itself on its first claimed task; the
        # parent force-releases the orphaned lease and worker 1 steals
        # it without waiting out the TTL.
        result = run_leased(
            TASKS, _ok, _lease_path(tmp_path), workers=2,
            heartbeat_interval=0.05, lease_ttl=5.0,
            worker_faults=(("scheduler.task:kill:at=1",), None),
        )
        assert result.failed == {}
        assert sorted(result.payloads) == sorted(TASKS)
        assert result.stats["steals"] >= 1
        assert result.stats["expiries"] >= 1

    def test_hung_worker_lease_expires_and_is_stolen(self, tmp_path):
        # Worker 0 goes silent (alive, no heartbeats) holding a lease;
        # the TTL expires under it and worker 1 reclaims.
        result = run_leased(
            TASKS, _ok, _lease_path(tmp_path), workers=2,
            heartbeat_interval=0.1, lease_ttl=0.6, poll_interval=0.02,
            worker_faults=(("scheduler.hang:corrupt:at=1",), None),
        )
        assert result.failed == {}
        assert sorted(result.payloads) == sorted(TASKS)
        assert result.stats["steals"] >= 1

    def test_respawn_when_every_worker_dies(self, tmp_path):
        # The only worker kills itself on its first claim; the parent
        # notices no live workers with work remaining and brings up a
        # clean replacement (chaos plans are not reinstalled).
        result = run_leased(
            TASKS, _ok, _lease_path(tmp_path), workers=1,
            heartbeat_interval=0.05, lease_ttl=1.0, poll_interval=0.02,
            worker_faults=(("scheduler.task:kill:at=1",),),
        )
        assert result.failed == {}
        assert sorted(result.payloads) == sorted(TASKS)
        assert result.stats["respawns"] >= 1

    def test_resume_skips_durably_completed_tasks(self, tmp_path):
        lease_path = _lease_path(tmp_path)
        first = run_leased(
            TASKS, _ok, lease_path, workers=2,
            heartbeat_interval=0.05, lease_ttl=2.0,
        )
        assert first.failed == {}

        marker = tmp_path / "executed"

        def poisoned(task, attempt):
            # Any execution on resume is a durability bug; leave
            # forensic evidence (workers are forked processes).
            with open(marker, "a") as handle:
                handle.write(f"{task}\n")
            raise AssertionError(f"re-executed completed task {task!r}")

        second = run_leased(
            TASKS, poisoned, lease_path, workers=2, resume=True,
            heartbeat_interval=0.05, lease_ttl=2.0,
        )
        assert second.failed == {}
        assert second.resumed == len(TASKS)
        assert second.payloads == first.payloads
        assert not marker.exists()
        # Nothing left to run: no worker is forked, no claim counted.
        assert second.stats.get("spawned", 0) == 0
        assert second.stats.get("claims", 0) == 0

    def test_resume_runs_only_the_missing_tasks(self, tmp_path):
        lease_path = _lease_path(tmp_path)
        flaky = TASKS[2]

        def fails_one(task, attempt):
            if task == flaky:
                raise RuntimeError("injected: group keeps failing")
            return _ok(task)

        first = run_leased(
            TASKS, fails_one, lease_path, workers=2, max_attempts=2,
            heartbeat_interval=0.05, lease_ttl=2.0,
        )
        assert set(first.failed) == {flaky}
        assert first.attempts[flaky] == 2
        assert "injected" in first.failed[flaky]

        executed = tmp_path / "resumed-executions"

        def recovered(task, attempt):
            with open(executed, "a") as handle:
                handle.write(json.dumps(list(task)) + "\n")
            return _ok(task)

        second = run_leased(
            TASKS, recovered, lease_path, workers=2, resume=True,
            max_attempts=2, heartbeat_interval=0.05, lease_ttl=2.0,
        )
        assert second.failed == {}
        assert sorted(second.payloads) == sorted(TASKS)
        # Only the group that never completed durably was re-solved.
        reruns = [
            tuple(json.loads(line))
            for line in executed.read_text().splitlines()
        ]
        assert reruns == [flaky]
        # The first run's claims are not counted again.
        assert second.stats["claims"] == 1

    def test_resume_steals_a_dead_runs_claim(self, tmp_path):
        """A crashed run's ``worker-0`` held task 0.  The resumed run's
        workers are named apart from it, so the claim expires after the
        TTL and is stolen, instead of staying live on the heartbeats of
        a new worker that happens to share its name."""
        from repro.robust.leases import LeaseLog

        lease_path = _lease_path(tmp_path)
        crashed = LeaseLog(lease_path, worker="worker-0")
        assert crashed.claim_next(TASKS, 2.0, max_attempts=3).task == TASKS[0]
        started = time.monotonic()
        with _deadline(20):
            result = run_leased(
                TASKS, _ok, lease_path, workers=2, resume=True,
                heartbeat_interval=0.05, lease_ttl=2.0,
            )
        assert time.monotonic() - started < 2.0 + 5.0
        assert result.failed == {}
        assert sorted(result.payloads) == sorted(TASKS)
        assert result.stats["steals"] == 1
        assert result.stats["expiries"] == 1

    def test_tasks_over_the_timeout_on_every_attempt_fail(self, tmp_path):
        """Every attempt of every task outlives ``unit_timeout``.  Each
        killed worker is replaced on the same plan, so the run keeps
        both workers to the end, and it ends with every task failed on
        its timeout instead of waiting for a worker it can no longer
        start."""

        def stuck(task, attempt):
            time.sleep(60.0)
            return _ok(task)

        tasks = [("bench", "typestate", 0, gi) for gi in range(6)]
        with _deadline(40):
            result = run_leased(
                tasks, stuck, _lease_path(tmp_path), workers=2,
                max_attempts=3, unit_timeout=0.2,
                heartbeat_interval=0.05, lease_ttl=5.0, poll_interval=0.02,
            )
        assert result.payloads == {}
        assert sorted(result.failed) == sorted(tasks)
        for task in tasks:
            assert result.attempts[task] == 3
            assert result.failed[task].startswith("timeout after 0.2s")
        # Two workers, then one replacement per killed claim.
        assert result.stats["spawned"] == 2 + 3 * len(tasks)

    def test_unit_timeout_replaces_the_killed_worker(self, tmp_path):
        """Task 0's first attempt sleeps past the timeout.  Its worker
        is replaced, the retry completes, and the other worker never
        stopped."""

        def slow_first(task, attempt):
            if task == TASKS[0] and attempt == 1:
                time.sleep(60.0)
            return _ok(task)

        with _deadline(30):
            result = run_leased(
                TASKS, slow_first, _lease_path(tmp_path), workers=2,
                unit_timeout=0.5, heartbeat_interval=0.05, lease_ttl=5.0,
                poll_interval=0.02,
            )
        assert result.failed == {}
        assert sorted(result.payloads) == sorted(TASKS)
        assert result.attempts[TASKS[0]] == 2
        assert result.stats["spawned"] == 3
        assert result.stats["respawns"] == 1

    def test_duplicate_completion_must_be_bit_identical(self, tmp_path):
        # The at-least-once safety net: if two attempts of one task
        # ever produce semantically different payloads, the scheduler
        # refuses rather than picking one.  (Driven at the LeaseLog
        # level in test_leases.py; here we check the worker surfaces
        # it as a failure instead of a silent pick.)
        from repro.robust.leases import LeaseConsistencyError, LeaseLog

        log = LeaseLog(_lease_path(tmp_path), worker="w1")
        claim = log.claim_next(TASKS, 5.0, max_attempts=3, now=0.0)
        log.complete(claim.task, claim.attempt, {"v": 1}, "fp-a")
        with pytest.raises(LeaseConsistencyError):
            log.complete(claim.task, claim.attempt, {"v": 2}, "fp-b")


class TestAttemptGatedBusReads:
    def test_only_re_executions_read_the_bus(self, tmp_path, monkeypatch):
        """The first attempt of tsp's escape unit publishes its rounds
        and then raises: a ``corrupt`` match at the ``unit`` site drops
        a record, which the unit's integrity check turns into an error
        after the search (a ``raise`` there would fire before any
        round).  The retry, attempt 2, imports those rounds, and no
        first attempt reads the bus."""
        from repro.bench.harness import evaluate_benchmark, prepare
        from repro.bench.parallel import RunOptions, evaluate_benchmark_parallel
        from repro.core.tracer import TracerConfig
        from repro.robust import faults
        from repro.robust.clausebus import ClauseBus, load_bus_records

        fetches = tmp_path / "fetches"
        fetch = ClauseBus.fetch

        def spy(bus, scope, round_index, queries):
            # Workers are forked: leave the evidence in a file.
            found = fetch(bus, scope, round_index, queries)
            with open(fetches, "a") as handle:
                handle.write(
                    json.dumps([faults._CURRENT.attempt, found is not None])
                    + "\n"
                )
            return found

        monkeypatch.setattr(ClauseBus, "fetch", spy)
        config = TracerConfig(k=5, max_iterations=30)
        bench = prepare("tsp")
        lease_path = str(tmp_path / "run.leases")
        options = RunOptions(
            fault_plan=FaultPlan.from_specs(["unit:corrupt:attempt=0"]),
            lease_path=lease_path,
        )
        leased = evaluate_benchmark_parallel(
            bench, "escape", config, jobs=2, options=options
        )
        serial = evaluate_benchmark(bench, "escape", config)

        assert leased.failed_units == ()
        assert leased.degraded  # the unit was retried
        assert [
            dict(record_to_dict(record), time_seconds=0.0)
            for record in leased.records
        ] == [
            dict(record_to_dict(record), time_seconds=0.0)
            for record in serial.records
        ]
        published = [
            record
            for record in load_bus_records(lease_path + ".bus")
            if record["type"] == "round"
        ]
        assert published  # the failed first attempt published rounds
        reads = [
            json.loads(line) for line in fetches.read_text().splitlines()
        ]
        # Fault attempts are 0-based: 1 is the claim's attempt 2.
        assert {attempt for attempt, _found in reads} == {1}
        assert sum(found for _attempt, found in reads) == len(published)


def _record(query_id: str, n: int) -> QueryRecord:
    return QueryRecord(
        query_id=query_id,
        status=QueryStatus.PROVEN if n % 2 == 0 else QueryStatus.IMPOSSIBLE,
        iterations=n + 1,
        abstraction=(f"p{n}",),
        abstraction_cost=n,
        time_seconds=0.0,
        max_disjuncts=1 + n,
        forward_runs=n + 1,
        forward_cache_hits=n,
    )


def _group_payloads():
    """Four synthetic group payloads of one unit (two per group)."""
    payloads = {}
    for gi in range(4):
        records = [_record(f"q{gi * 2 + k}", gi * 2 + k) for k in range(2)]
        payloads[("bench", "typestate", 0, gi)] = {
            "task": ["bench", "typestate", 0, gi],
            "queries": [record.query_id for record in records],
            "records": [record_to_dict(record) for record in records],
            "metrics": {"forward_cache": {"hits": gi, "misses": 1}},
            "events": [],
            "certificates": [{"query": record.query_id} for record in records],
        }
    return payloads


@settings(max_examples=30, deadline=None)
@given(order=st.permutations(list(range(4))))
def test_merge_is_completion_order_independent(order):
    """Shuffling the order in which group payloads complete must not
    change the exported result: assembly reads payloads by task key in
    task order, never in completion order."""
    payloads = _group_payloads()
    task_order = sorted(payloads)  # the deterministic assembly order
    baseline_unit = _assemble(payloads, task_order)

    shuffled = {}
    for index in order:
        task = task_order[index]
        shuffled[task] = payloads[task]  # dict insertion = completion order
    shuffled_unit = _assemble(shuffled, task_order)

    baseline = _merge("bench", "typestate", [baseline_unit], 1.0)
    reordered = _merge("bench", "typestate", [shuffled_unit], 1.0)
    exported = results_to_dict({"bench": {"typestate": baseline}})
    reexported = results_to_dict({"bench": {"typestate": reordered}})
    exported["meta"] = reexported["meta"] = {}
    assert exported == reexported


def _assemble(payloads, task_order):
    """The per-unit assembly loop of ``_run_leased``, distilled:
    concatenate group results in *task* order regardless of the
    payload dict's (completion) order."""
    records, metrics, certificates = [], {}, []
    for task in task_order:
        group_records, group_metrics, _events, group_certs = (
            _payload_result(payloads[task])
        )
        records.extend(group_records)
        for name, counters in group_metrics.items():
            metrics[name] = metrics.get(name, CacheCounters()) + counters
        certificates.extend(group_certs)
    return records, metrics, [], certificates
