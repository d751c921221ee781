"""Concurrency stress test for the one durable-log append path, run
through the three logs that several processes append to at once: the
clause bus, the lease log and the knowledge store.

More appending processes than cores append large records to one log at
once, and one of them leaves a torn half-line behind midway (a writer
killed mid-append, simulated under the log's lock).  Every appended
record must come back exactly once with a valid checksum, and a fresh
handle must find each one.  An appender that wrote at an offset it
remembered instead of at the end of the file would overwrite a
sibling's record, and this test would see the loss.
"""

import multiprocessing
import random
import time

import pytest

from repro.robust.clausebus import BUS_VERSION, ClauseBus, load_bus_records
from repro.robust.durablelog import DurableLog
from repro.robust.leases import LEASE_VERSION, LeaseLog, load_lease_records
from repro.serve.store import STORE_VERSION, KnowledgeStore

APPENDERS = 6
ROUNDS = 25
#: The round after which appender 0 writes the torn half-line.
TORN_AFTER = ROUNDS // 2
DEADLINE_S = 60.0


def _record(index: int, round_index: int) -> dict:
    """The record appender ``index`` appends as ``round_index``:
    1–50 KB, reproducible by the checker."""
    size = random.Random(index * 1000 + round_index).randint(1_000, 50_000)
    return {
        "round": round_index,
        "outcome": "ok",
        "blob": f"{index}:{round_index}:".ljust(size, "x"),
    }


class _Bus:
    name, version = "bus", BUS_VERSION

    @staticmethod
    def create(path):
        ClauseBus(path, worker="parent", fresh=True)

    @staticmethod
    def appender(path, index):
        bus = ClauseBus(path, worker=f"w{index}")
        return lambda r, record: bus.publish(f"s{index}", r, ["q"], record)

    @staticmethod
    def appended(path):
        return [
            ((record["scope"], record["round"]), record["record"])
            for record in load_bus_records(path)
            if record["type"] == "round"
        ]

    @staticmethod
    def finder(path):
        bus = ClauseBus(path, worker="checker")
        return lambda scope, r: bus.fetch(scope, r, ["q"])


class _Leases:
    name, version = "lease", LEASE_VERSION

    @staticmethod
    def create(path):
        LeaseLog(path, worker="parent", fresh=True)

    @staticmethod
    def appender(path, index):
        log = LeaseLog(path, worker=f"w{index}")
        return lambda r, record: log.complete(
            (f"s{index}", "x", r, 0), 1, record, f"{index}:{r}"
        )

    @staticmethod
    def appended(path):
        return [
            ((record["task"][0], record["task"][2]), record["payload"])
            for record in load_lease_records(path)
            if record["type"] == "complete"
        ]

    @staticmethod
    def finder(path):
        payloads = LeaseLog(path, worker="checker").completed_payloads()
        return lambda scope, r: payloads.get((scope, "x", r, 0))


class _Store:
    name, version = "store", STORE_VERSION

    @staticmethod
    def create(path):
        KnowledgeStore(path)

    @staticmethod
    def appender(path, index):
        store = KnowledgeStore(path)

        def append(r, record):
            store.record(
                digest=f"s{index}:{r}", source=None, client_info={},
                config=(), query_ids=["q"], rounds=[record], results={},
                witnesses={},
            )
            return True

        return append

    @staticmethod
    def appended(path):
        records = DurableLog(path, "store", STORE_VERSION).read()
        return [
            ((scope, int(r)), record["rounds"][0])
            for record in records
            if record["type"] == "entry"
            for scope, r in [record["digest"].split(":")]
        ]

    @staticmethod
    def finder(path):
        store = KnowledgeStore(path)

        def find(scope, r):
            entry = store.lookup(f"{scope}:{r}", (), ["q"])
            return None if entry is None else entry["rounds"][0]

        return find


LOGS = {"bus": _Bus, "lease": _Leases, "store": _Store}


def _append_all(kind: str, path: str, index: int) -> None:
    log = LOGS[kind]
    append = log.appender(path, index)
    for round_index in range(ROUNDS):
        if not append(round_index, _record(index, round_index)):
            raise SystemExit(f"appender {index} dropped round {round_index}")
        if index == 0 and round_index == TORN_AFTER:
            lock = DurableLog(path, log.name, log.version).lock()
            with lock, open(path, "ab") as handle:
                handle.write(b'{"type": "round", "scope": "torn", "rou')


@pytest.mark.parametrize("kind", sorted(LOGS))
def test_concurrent_publishers_lose_and_duplicate_nothing(tmp_path, kind):
    log = LOGS[kind]
    path = str(tmp_path / f"stress.{kind}")
    log.create(path)
    context = multiprocessing.get_context("spawn")
    processes = [
        context.Process(target=_append_all, args=(kind, path, index))
        for index in range(APPENDERS)
    ]
    for process in processes:
        process.start()
    deadline = time.monotonic() + DEADLINE_S
    try:
        for process in processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not process.is_alive(), "an appender did not finish in time"
            assert process.exitcode == 0
    finally:
        for process in processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)

    # Loading verifies every checksum and the header.
    records = DurableLog(path, log.name, log.version).read()
    assert records[0]["type"] == f"{log.name}_header"
    expected = {
        (f"s{index}", round_index): _record(index, round_index)
        for index in range(APPENDERS)
        for round_index in range(ROUNDS)
    }
    appended = log.appended(path)
    assert len(appended) == len(expected)  # nothing duplicated
    assert dict(appended) == expected  # nothing lost or damaged

    find = log.finder(path)
    for (scope, round_index), record in expected.items():
        assert find(scope, round_index) == record
