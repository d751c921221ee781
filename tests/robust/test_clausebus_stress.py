"""Concurrency stress test for the clause bus's append path.

More publishing processes than cores append large round records to one
bus at once, and one of them leaves a torn half-line behind midway (a
writer killed mid-append, simulated under the lock).  Every published
round must come back exactly once with a valid checksum, and a fresh
handle must fetch each one.  An appender that wrote at an offset it
remembered instead of at the end of the file would overwrite a
sibling's record, and this test would see the loss.
"""

import multiprocessing
import random
import time

from repro.robust.clausebus import ClauseBus, load_bus_records
from repro.robust.leases import _LeaseLock

PUBLISHERS = 6
ROUNDS = 25
#: The round after which publisher 0 writes the torn half-line.
TORN_AFTER = ROUNDS // 2
DEADLINE_S = 60.0


def _record(index: int, round_index: int) -> dict:
    """The round record publisher ``index`` publishes as ``round_index``:
    1–50 KB, reproducible by the checker."""
    size = random.Random(index * 1000 + round_index).randint(1_000, 50_000)
    return {
        "round": round_index,
        "outcome": "ok",
        "blob": f"{index}:{round_index}:".ljust(size, "x"),
    }


def _publish_all(path: str, index: int) -> None:
    bus = ClauseBus(path, worker=f"w{index}")
    for round_index in range(ROUNDS):
        record = _record(index, round_index)
        if not bus.publish(f"s{index}", round_index, [f"q{index}"], record):
            raise SystemExit(f"publisher {index} dropped round {round_index}")
        if index == 0 and round_index == TORN_AFTER:
            with _LeaseLock(path), open(path, "ab") as handle:
                handle.write(b'{"type": "round", "scope": "torn", "rou')


def test_concurrent_publishers_lose_and_duplicate_nothing(tmp_path):
    path = str(tmp_path / "stress.bus")
    ClauseBus(path, worker="parent", fresh=True)
    context = multiprocessing.get_context("spawn")
    processes = [
        context.Process(target=_publish_all, args=(path, index))
        for index in range(PUBLISHERS)
    ]
    for process in processes:
        process.start()
    deadline = time.monotonic() + DEADLINE_S
    try:
        for process in processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not process.is_alive(), "a publisher did not finish in time"
            assert process.exitcode == 0
    finally:
        for process in processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)

    records = load_bus_records(path)  # verifies every checksum
    assert records[0]["type"] == "bus_header"
    published = [
        (record["scope"], record["round"])
        for record in records
        if record["type"] == "round"
    ]
    expected = [
        (f"s{index}", round_index)
        for index in range(PUBLISHERS)
        for round_index in range(ROUNDS)
    ]
    assert sorted(published) == expected

    checker = ClauseBus(path, worker="checker")
    for index in range(PUBLISHERS):
        for round_index in range(ROUNDS):
            assert checker.fetch(
                f"s{index}", round_index, [f"q{index}"]
            ) == _record(index, round_index)
