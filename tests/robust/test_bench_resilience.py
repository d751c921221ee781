"""Crash-surviving parallel evaluation: retries, kills, timeouts and
resuming from the lease log.

A SIGKILLed worker, a failing first attempt or a first attempt over its
timeout must not change the merged records (they are bit-identical to
an un-faulted run), permanently failing units land in ``failed_units``
instead of raising, and ``--resume`` reruns only the work missing from
the lease log."""

import json
import time

import pytest

from repro.bench.harness import analysis_setups, evaluate_benchmark, prepare
from repro.bench.parallel import RunOptions, evaluate_benchmark_parallel
from repro.core.tracer import TracerConfig
from repro.robust.durablelog import LogCorruption
from repro.robust.faults import FaultPlan, FaultRule
from repro.robust.leases import load_lease_records

CONFIG = TracerConfig(k=5, max_iterations=30)


def record_key(record):
    """Everything about a record except wall-clock time."""
    return (
        record.query_id,
        record.status,
        record.abstraction,
        record.abstraction_cost,
        record.iterations,
        record.forward_runs,
        record.forward_cache_hits,
        record.max_disjuncts,
    )


def keys(result):
    return [record_key(r) for r in result.records]


@pytest.fixture(scope="module")
def bench():
    return prepare("elevator")


@pytest.fixture(scope="module")
def baseline(bench):
    return evaluate_benchmark(bench, "typestate", CONFIG, jobs=1)


class TestFaultedMergesAreBitIdentical:
    def test_raise_on_first_attempt_retries_to_identical_records(
        self, bench, baseline
    ):
        plan = FaultPlan(
            [FaultRule("unit:elevator:typestate:0", "raise", attempt=0)]
        )
        result = evaluate_benchmark_parallel(
            bench,
            "typestate",
            CONFIG,
            jobs=2,
            options=RunOptions(fault_plan=plan),
        )
        assert keys(result) == keys(baseline)
        assert result.degraded
        assert result.failed_units == ()

    def test_sigkilled_worker_recovers_to_identical_records(
        self, bench, baseline
    ):
        """Acceptance: SIGKILL of one worker mid-evaluation completes
        via respawn + retry, never an unhandled BrokenProcessPool."""
        plan = FaultPlan(
            [FaultRule("unit:elevator:typestate:0", "kill", attempt=0)]
        )
        result = evaluate_benchmark_parallel(
            bench,
            "typestate",
            CONFIG,
            jobs=2,
            options=RunOptions(fault_plan=plan),
        )
        assert keys(result) == keys(baseline)
        assert result.degraded
        assert result.failed_units == ()

    def test_corrupted_unit_output_is_caught_and_retried(
        self, bench, baseline
    ):
        plan = FaultPlan(
            [FaultRule("unit:elevator:typestate:0", "corrupt", attempt=0)]
        )
        result = evaluate_benchmark_parallel(
            bench,
            "typestate",
            CONFIG,
            jobs=2,
            options=RunOptions(fault_plan=plan),
        )
        assert keys(result) == keys(baseline)
        assert result.failed_units == ()


class TestPermanentFailure:
    def test_unit_failing_every_attempt_lands_in_failed_units(
        self, bench, baseline
    ):
        plan = FaultPlan(
            [FaultRule("unit:elevator:typestate:0", "raise", times=None)]
        )
        result = evaluate_benchmark_parallel(
            bench,
            "typestate",
            CONFIG,
            jobs=2,
            options=RunOptions(max_attempts=2, fault_plan=plan),
        )
        assert result.degraded
        assert len(result.failed_units) == 1
        assert result.failed_units[0].startswith("elevator:typestate:0:")
        # Units merge in unit order, so dropping unit 0 drops exactly
        # the baseline's leading records; every other unit survives.
        dropped = len(analysis_setups(bench, "typestate")[0][1])
        assert dropped > 0
        assert keys(result) == keys(baseline)[dropped:]

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError, match="at least 1"):
            RunOptions(max_attempts=0)


class TestTimeout:
    def test_hung_unit_times_out_and_recovers(self, bench, baseline):
        """The first attempt of unit 0 sleeps far past its timeout; the
        parent kills its worker and the retry solves the unit."""
        plan = FaultPlan(
            [
                FaultRule(
                    "unit:elevator:typestate:0", "delay", delay=60.0,
                    attempt=0,
                )
            ]
        )
        started = time.monotonic()
        result = evaluate_benchmark_parallel(
            bench,
            "typestate",
            CONFIG,
            jobs=2,
            options=RunOptions(unit_timeout=3.0, fault_plan=plan),
        )
        assert time.monotonic() - started < 30  # nowhere near the delay
        assert keys(result) == keys(baseline)
        assert result.degraded
        assert result.failed_units == ()

    def test_a_run_without_jobs_honours_the_timeout(self, bench, baseline):
        """A timeout needs a supervisor, so a one-job run that sets one
        goes through the scheduler instead of dropping it."""
        plan = FaultPlan(
            [
                FaultRule(
                    "unit:elevator:typestate:0", "delay", delay=60.0,
                    attempt=0,
                )
            ]
        )
        started = time.monotonic()
        result = evaluate_benchmark_parallel(
            bench,
            "typestate",
            CONFIG,
            jobs=1,
            options=RunOptions(unit_timeout=2.0, fault_plan=plan),
        )
        assert time.monotonic() - started < 30
        assert keys(result) == keys(baseline)
        assert result.degraded
        assert result.failed_units == ()

    def test_unit_over_its_timeout_on_every_attempt_fails(
        self, bench, baseline
    ):
        plan = FaultPlan(
            [
                FaultRule(
                    "unit:elevator:typestate:0", "delay", delay=60.0,
                    times=None,
                )
            ]
        )
        started = time.monotonic()
        result = evaluate_benchmark_parallel(
            bench,
            "typestate",
            CONFIG,
            jobs=2,
            options=RunOptions(
                max_attempts=2, unit_timeout=2.0, fault_plan=plan
            ),
        )
        assert time.monotonic() - started < 30
        (failure,) = result.failed_units
        assert failure.startswith("elevator:typestate:0:")
        assert "timeout after 2.0s" in failure
        dropped = len(analysis_setups(bench, "typestate")[0][1])
        assert keys(result) == keys(baseline)[dropped:]


class TestCheckpointResume:
    """``--checkpoint FILE`` keeps the lease log at FILE; ``--resume``
    takes every completed task from it."""

    def test_resume_runs_only_unfinished_units(self, bench, baseline, tmp_path):
        path = str(tmp_path / "run.leases")
        first = evaluate_benchmark_parallel(
            bench,
            "typestate",
            CONFIG,
            jobs=2,
            options=RunOptions(lease_path=path),
        )
        assert keys(first) == keys(baseline)
        # Resume from a complete lease log under a plan that fails
        # *every* executed unit: nothing may execute, so the merge must
        # still be identical — proof that only unfinished units rerun.
        poison = FaultPlan([FaultRule("unit", "raise", times=None)])
        resumed = evaluate_benchmark_parallel(
            bench,
            "typestate",
            CONFIG,
            jobs=2,
            options=RunOptions(
                max_attempts=1,
                lease_path=path,
                resume=True,
                fault_plan=poison,
            ),
        )
        assert keys(resumed) == keys(baseline)
        assert resumed.failed_units == ()
        assert resumed.degraded  # resumed-from-the-log is flagged

    def test_resume_after_torn_checkpoint_reruns_the_missing_unit(
        self, bench, baseline, tmp_path
    ):
        path = str(tmp_path / "run.leases")
        evaluate_benchmark_parallel(
            bench,
            "typestate",
            CONFIG,
            jobs=2,
            options=RunOptions(lease_path=path),
        )
        # Tear the last completion in half, as a crash mid-append
        # would, and drop everything after it.
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        last = max(
            index
            for index, line in enumerate(lines)
            if b'"type": "complete"' in line
        )
        missing = json.loads(lines[last])["task"][2]
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines[:last] + [lines[last][:40]]))
        # Every other unit fails if it runs again.
        others = FaultPlan(
            [
                FaultRule(
                    f"unit:elevator:typestate:{index}", "raise", times=None
                )
                for index in range(len(analysis_setups(bench, "typestate")))
                if index != missing
            ]
        )
        resumed = evaluate_benchmark_parallel(
            bench,
            "typestate",
            CONFIG,
            jobs=2,
            options=RunOptions(
                max_attempts=1,
                lease_path=path,
                resume=True,
                fault_plan=others,
                heartbeat_interval=0.1,
                lease_ttl=1.0,
            ),
        )
        assert keys(resumed) == keys(baseline)
        assert resumed.failed_units == ()
        # The rerun unit completed durably: the log now holds every unit.
        completed = {
            tuple(record["task"])
            for record in load_lease_records(path)
            if record["type"] == "complete"
        }
        assert len(completed) == len(analysis_setups(bench, "typestate"))

    def test_resume_from_a_unit_checkpoint_raises(self, bench, tmp_path):
        """A checkpoint written before the lease log took its place is
        another kind of file: resuming from it must fail loudly, not
        re-run everything and append lease records to it, nor leave a
        clause bus beside it."""
        path = tmp_path / "old.jsonl"
        with open(path, "w") as handle:
            for record in (
                {"type": "checkpoint_header", "version": 1},
                {
                    "type": "unit", "benchmark": "elevator",
                    "analysis": "typestate", "index": 0, "attempts": 1,
                    "records": [], "metrics": {}, "certificates": [],
                },
            ):
                handle.write(json.dumps(record) + "\n")
        before = path.read_bytes()
        with pytest.raises(LogCorruption, match="not a lease log"):
            evaluate_benchmark_parallel(
                bench,
                "typestate",
                CONFIG,
                jobs=2,
                options=RunOptions(lease_path=str(path), resume=True),
            )
        assert path.read_bytes() == before
        # Only the lock sidecar that opening any durable log takes.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "old.jsonl",
            "old.jsonl.lock",
        ]


class TestEvaluateManyResilience:
    def test_kill_in_one_benchmark_spares_the_rest(self):
        from repro.bench.parallel import evaluate_many

        instances = {name: prepare(name) for name in ("tsp", "elevator")}
        serial = evaluate_many(
            instances, ("typestate",), CONFIG, jobs=1
        )
        plan = FaultPlan(
            [FaultRule("unit:elevator:typestate:0", "kill", attempt=0)]
        )
        faulted = evaluate_many(
            instances,
            ("typestate",),
            CONFIG,
            jobs=2,
            options=RunOptions(fault_plan=plan),
        )
        for name in serial:
            assert keys(faulted[name]["typestate"]) == keys(
                serial[name]["typestate"]
            )
        assert faulted["elevator"]["typestate"].failed_units == ()
