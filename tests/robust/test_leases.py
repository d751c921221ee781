"""Durability and protocol tests for the lease log and the clause bus.

Mirrors the crash matrix of ``tests/serve/test_store_lifecycle.py``:
torn tails are crash artifacts (skipped, then truncated before the
next append), interior corruption and checksum mismatches are data
loss (loud failures), and two handles interleaving through the flock
see each other's appends.  On top of that, the lease-specific
semantics: heartbeat-based liveness, steal vs retry, first-completion
-wins dedup with fingerprint assertion, and the structural verifier.
"""

import json
from pathlib import Path

import pytest

from repro.robust.clausebus import BUS_VERSION, ClauseBus, ClauseFeed, load_bus_records
from repro.robust.durablelog import DurableLog
from repro.robust.leases import (
    LeaseConsistencyError,
    LeaseCorruption,
    LeaseLog,
    LeaseWatcher,
    lease_summary,
    load_lease_records,
    payload_fingerprint,
    record_checksum,
    verify_lease_log,
)

TASKS = [("bench", "typestate", 0, gi) for gi in range(3)]
TTL = 10.0


def _log(tmp_path, worker="w1", fresh=False):
    return LeaseLog(str(tmp_path / "run.leases"), worker=worker, fresh=fresh)


class TestLeaseLogLifecycle:
    def test_fresh_log_has_header(self, tmp_path):
        log = _log(tmp_path)
        records = load_lease_records(log.path)
        assert [r["type"] for r in records] == ["lease_header"]
        assert records[0]["version"] == 1

    def test_claim_complete_roundtrip(self, tmp_path):
        log = _log(tmp_path)
        claim = log.claim_next(TASKS, TTL, max_attempts=3, now=0.0)
        assert claim.task == TASKS[0]
        assert claim.attempt == 1
        assert claim.stolen_from is None
        log.complete(claim.task, claim.attempt, {"value": 1}, "fp-1")
        payloads = log.completed_payloads()
        assert payloads == {TASKS[0]: {"value": 1}}
        # The next claim moves on to the second task.
        assert log.claim_next(TASKS, TTL, max_attempts=3, now=0.0).task == TASKS[1]

    def test_two_handles_interleave(self, tmp_path):
        a = _log(tmp_path, worker="a")
        b = LeaseLog(a.path, worker="b")
        first = a.claim_next(TASKS, TTL, max_attempts=3, now=0.0)
        second = b.claim_next(TASKS, TTL, max_attempts=3, now=0.0)
        # b synced a's claim through the flock and skipped its task.
        assert first.task == TASKS[0]
        assert second.task == TASKS[1]
        a.complete(first.task, first.attempt, {"v": "a"}, "fa")
        assert b.completed_payloads()[TASKS[0]] == {"v": "a"}

    def test_fresh_flag_truncates_previous_run(self, tmp_path):
        log = _log(tmp_path)
        claim = log.claim_next(TASKS, TTL, max_attempts=3, now=0.0)
        log.complete(claim.task, claim.attempt, {"v": 1}, "fp")
        again = _log(tmp_path, worker="w2", fresh=True)
        assert again.completed_payloads() == {}
        assert [r["type"] for r in load_lease_records(again.path)] == [
            "lease_header"
        ]

    def test_torn_tail_skipped_then_truncated_on_append(self, tmp_path):
        log = _log(tmp_path)
        log.claim_next(TASKS, TTL, max_attempts=3, now=0.0)
        with open(log.path, "a") as handle:
            handle.write('{"type": "complete", "task"')  # killed mid-write
        # A reader skips the torn tail...
        records = load_lease_records(log.path)
        assert [r["type"] for r in records] == ["lease_header", "claim"]
        # ...and the next append truncates it rather than concatenating.
        other = LeaseLog(log.path, worker="w2")
        other.heartbeat(now=1.0)
        records = load_lease_records(log.path)
        assert [r["type"] for r in records] == [
            "lease_header", "claim", "heartbeat",
        ]

    def test_interior_corruption_raises(self, tmp_path):
        log = _log(tmp_path)
        log.heartbeat(now=1.0)
        lines = Path(log.path).read_text().splitlines()
        lines[0] = "not json"
        with open(log.path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(LeaseCorruption):
            load_lease_records(log.path)

    def test_checksum_mismatch_raises(self, tmp_path):
        log = _log(tmp_path)
        log.heartbeat(now=1.0)
        lines = Path(log.path).read_text().splitlines()
        beat = json.loads(lines[-1])
        beat["t"] = 99.0  # tampered field, stale checksum
        lines[-1] = json.dumps(beat, sort_keys=True)
        with open(log.path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(LeaseCorruption):
            load_lease_records(log.path)

    def test_checksum_excludes_itself(self):
        record = {"type": "heartbeat", "worker": "w", "t": 1.0}
        digest = record_checksum(record)
        assert record_checksum(dict(record, sha256=digest)) == digest


class TestLeaseProtocol:
    def test_voluntary_release_is_retry_not_steal(self, tmp_path):
        a = _log(tmp_path, worker="a")
        claim = a.claim_next(TASKS, TTL, max_attempts=3, now=0.0)
        a.release(claim.task, claim.attempt, error="boom")
        b = LeaseLog(a.path, worker="b")
        again = b.claim_next(TASKS, TTL, max_attempts=3, now=0.0)
        assert again.task == TASKS[0]
        assert again.attempt == 2
        assert again.stolen_from is None

    def test_expired_lease_is_stolen(self, tmp_path):
        a = _log(tmp_path, worker="a")
        a.claim_next(TASKS, TTL, max_attempts=3, now=0.0)
        b = LeaseLog(a.path, worker="b")
        # Within the TTL the lease is live: b gets the *next* task.
        assert b.claim_next(TASKS, TTL, max_attempts=3, now=1.0).task == TASKS[1]
        stolen = b.claim_next(TASKS, TTL, max_attempts=3, now=TTL + 1.0)
        assert stolen.task == TASKS[0]
        assert stolen.attempt == 2
        assert stolen.stolen_from == "a"

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        a = _log(tmp_path, worker="a")
        a.claim_next(TASKS[:1], TTL, max_attempts=3, now=0.0)
        a.heartbeat(now=TTL - 1.0)
        b = LeaseLog(a.path, worker="b")
        # Liveness dates from the last heartbeat, not the claim.
        assert b.claim_next(TASKS[:1], TTL, max_attempts=3, now=TTL + 5.0) is None
        assert (
            b.claim_next(TASKS[:1], TTL, max_attempts=3, now=2 * TTL).task
            == TASKS[0]
        )

    def test_parent_release_makes_next_claim_a_steal(self, tmp_path):
        a = _log(tmp_path, worker="a")
        claim = a.claim_next(TASKS, TTL, max_attempts=3, now=0.0)
        parent = LeaseLog(a.path, worker="parent")
        parent.release(claim.task, claim.attempt, error="worker died", by="parent")
        b = LeaseLog(a.path, worker="b")
        stolen = b.claim_next(TASKS, TTL, max_attempts=3, now=1.0)
        assert stolen.task == TASKS[0]
        assert stolen.stolen_from == "a"

    def test_first_completion_wins_and_duplicates_must_agree(self, tmp_path):
        a = _log(tmp_path, worker="a")
        b = LeaseLog(a.path, worker="b")
        ca = a.claim_next(TASKS, TTL, max_attempts=3, now=0.0)
        cb = b.claim_next(TASKS, TTL, max_attempts=3, now=TTL + 1.0)
        assert cb.stolen_from == "a"
        assert b.complete(cb.task, cb.attempt, {"v": 1}, "same") is True
        # The original holder finishes late: dedup, not a second record.
        assert a.complete(ca.task, ca.attempt, {"v": 1}, "same") is False
        assert a.duplicates == 1
        assert len(a.completed_payloads()) == 1
        # A *disagreeing* duplicate is determinism breakage.
        with pytest.raises(LeaseConsistencyError):
            a.complete(ca.task, ca.attempt, {"v": 2}, "different")

    def test_max_attempts_exhausted_is_failed(self, tmp_path):
        log = _log(tmp_path)
        for _ in range(2):
            claim = log.claim_next(TASKS[:1], TTL, max_attempts=2, now=0.0)
            log.release(claim.task, claim.attempt, error="boom")
        assert log.claim_next(TASKS[:1], TTL, max_attempts=2, now=0.0) is None
        statuses = log.snapshot(TASKS[:1], TTL, max_attempts=2, now=0.0)
        assert statuses[TASKS[0]] == "failed"
        assert log.last_error(TASKS[0]) == "boom"

    def test_watcher_polls_incrementally(self, tmp_path):
        log = _log(tmp_path)
        watcher = LeaseWatcher(log.path)
        assert [r["type"] for r in watcher.poll()] == ["lease_header"]
        log.heartbeat(now=1.0)
        assert [r["type"] for r in watcher.poll()] == ["heartbeat"]
        assert watcher.poll() == []

    def test_payload_fingerprint_ignores_volatile_keys(self):
        a = {"records": [1, 2], "metrics": {"x": 1}, "events": ["e"]}
        b = {"records": [1, 2], "metrics": {"x": 9}, "events": []}
        volatile = ("metrics", "events")
        assert payload_fingerprint(a, volatile) == payload_fingerprint(b, volatile)
        c = {"records": [1, 3], "metrics": {"x": 1}, "events": ["e"]}
        assert payload_fingerprint(a, volatile) != payload_fingerprint(c, volatile)


class TestVerifyLeaseLog:
    def test_healthy_log(self, tmp_path):
        log = _log(tmp_path)
        claim = log.claim_next(TASKS, TTL, max_attempts=3, now=0.0)
        log.complete(claim.task, claim.attempt, {"v": 1}, "fp")
        problems, summary = verify_lease_log(log.path)
        assert problems == []
        assert summary["counters"]["claims"] == 1
        assert summary["counters"]["completions"] == 1
        assert summary["by_status"] == {"complete": 1}

    def test_completion_without_claim_is_a_problem(self, tmp_path):
        log = _log(tmp_path)
        log.complete(TASKS[0], 1, {"v": 1}, "fp")
        problems, _summary = verify_lease_log(log.path)
        assert any("without a matching claim" in p for p in problems)

    def test_missing_header_is_a_problem(self, tmp_path):
        path = tmp_path / "empty.leases"
        path.write_text("")
        problems, _summary = verify_lease_log(str(path))
        assert problems

    def test_summary_marks_expired_leases(self, tmp_path):
        log = _log(tmp_path)
        log.claim_next(TASKS, TTL, max_attempts=3, now=0.0)
        summary = lease_summary(
            load_lease_records(log.path), ttl=TTL, now=TTL + 1.0
        )
        assert summary["by_status"] == {"expired": 1}


class TestClauseBus:
    def test_publish_fetch_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.bus")
        bus = ClauseBus(path, worker="w1")
        record = {"round": 1, "queries": ["q1"], "outcome": "ok"}
        assert bus.publish("scope", 1, ["q1"], record) is True
        # Duplicate publication is dropped (first wins).
        assert bus.publish("scope", 1, ["q1"], record) is False
        other = ClauseBus(path, worker="w2")
        assert other.fetch("scope", 1, ["q1"]) == record
        assert other.fetch("scope", 2, ["q1"]) is None
        assert other.fetch("other", 1, ["q1"]) is None
        assert [r["type"] for r in load_bus_records(path)] == [
            "bus_header", "round",
        ]
        assert load_bus_records(path)[0]["version"] == BUS_VERSION

    def test_torn_tail_tolerated_and_truncated(self, tmp_path):
        path = str(tmp_path / "run.bus")
        bus = ClauseBus(path, worker="w1")
        bus.publish("s", 1, ["q"], {"round": 1})
        with open(path, "a") as handle:
            handle.write('{"type": "round", "scope"')
        other = ClauseBus(path, worker="w2")
        assert other.fetch("s", 1, ["q"]) == {"round": 1}
        other.publish("s", 2, ["q"], {"round": 2})
        assert [r["type"] for r in load_bus_records(path)] == [
            "bus_header", "round", "round",
        ]

    def test_append_keeps_the_read_offset_before_unread_rounds(self, tmp_path):
        path = str(tmp_path / "run.bus")
        a = ClauseBus(path, worker="a")
        for round_index in (1, 2):
            a.publish("S", round_index, ["q"], {"round": round_index})
        b = ClauseBus(path, worker="b")
        # b appends past a's rounds without reading them; a later drain
        # on b must still start where b's last read ended.
        assert b.publish("T", 1, ["q"], {"round": 1}) is True
        assert b.fetch("S", 1, ["q"]) == {"round": 1}
        assert b.fetch("S", 2, ["q"]) == {"round": 2}
        assert b.fetch("T", 1, ["q"]) == {"round": 1}

    def test_a_handle_finds_the_rounds_it_published(self, tmp_path):
        bus = ClauseBus(str(tmp_path / "run.bus"), worker="w1")
        # Having read to the end, the handle's append moves its read
        # offset past the round it wrote, so it must index that round.
        assert bus.fetch("s", 0, ["q"]) is None
        assert bus.publish("s", 1, ["q"], {"round": 1})
        assert bus.fetch("s", 1, ["q"]) == {"round": 1}

    def test_publish_parses_no_sibling_record(self, tmp_path, monkeypatch):
        path = str(tmp_path / "run.bus")
        a = ClauseBus(path, worker="a")
        b = ClauseBus(path, worker="b")
        ingested = []
        monkeypatch.setattr(b, "_ingest", ingested.append)

        def no_scan(*_args):
            raise AssertionError("the append path scanned the bus")

        monkeypatch.setattr(DurableLog, "read", no_scan)
        for round_index in range(20):
            assert a.publish("S", round_index, ["q"], {"round": round_index})
            assert b.publish("T", round_index, ["q"], {"round": round_index})
        # Dedup within one handle needs no read either.
        assert b.publish("T", 3, ["q"], {"round": 3}) is False
        assert ingested == []
        monkeypatch.undo()
        assert len(load_bus_records(path)) == 41

    def test_interior_corruption_raises(self, tmp_path):
        path = str(tmp_path / "run.bus")
        bus = ClauseBus(path, worker="w1")
        bus.publish("s", 1, ["q"], {"round": 1})
        lines = Path(path).read_text().splitlines()
        lines[0] = "garbage"
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises((LeaseCorruption, ValueError)):
            load_bus_records(path)

    def test_checksum_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "run.bus")
        bus = ClauseBus(path, worker="w1")
        bus.publish("s", 1, ["q"], {"round": 1})
        lines = Path(path).read_text().splitlines()
        entry = json.loads(lines[-1])
        entry["worker"] = "forged"
        lines[-1] = json.dumps(entry, sort_keys=True)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(LeaseCorruption):
            load_bus_records(path)

    def test_unwritable_bus_disables_not_raises(self, tmp_path):
        # A directory is not a writable log: the bus goes best-effort
        # dead instead of failing the evaluation.
        bus = ClauseBus(str(tmp_path), worker="w1")
        assert bus.disabled
        assert bus.publish("s", 1, ["q"], {"round": 1}) is False
        assert bus.dropped == 1
        assert bus.fetch("s", 1, ["q"]) is None

    def test_feed_publishes_only_ok_rounds(self, tmp_path):
        path = str(tmp_path / "run.bus")
        feed = ClauseFeed(ClauseBus(path, worker="w1"), scope="t1")
        feed.publish({"round": 1, "queries": ["q"], "outcome": "budget"})
        feed.publish({"round": 2, "queries": ["q"], "outcome": "ok"})
        assert feed.published == 1
        sibling = ClauseFeed(ClauseBus(path, worker="w2"), scope="t1")
        assert sibling.recorded_round(1, ["q"]) is None
        assert sibling.recorded_round(2, ["q"]).raw == {
            "round": 2, "queries": ["q"], "outcome": "ok",
        }
        assert sibling.imported == 1
        # A different scope never sees it: rounds are per task.
        assert ClauseFeed(
            ClauseBus(path, worker="w3"), scope="t2"
        ).recorded_round(2, ["q"]) is None
