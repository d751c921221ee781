"""One crash matrix over the five durable logs: the eval checkpoint,
the search journal, the knowledge store, the lease log and the clause
bus all run the durable-log rule of :mod:`repro.robust.durablelog`, so
each case here is checked through each log's own public API.

* a torn final line (no newline, or not a JSON object) is skipped by
  readers and cut, exactly, by the next append;
* a damaged line before the final one raises on load and on append;
* a checksum mismatch raises on a checksummed log;
* a header of an unknown version raises;
* a missing file reads as empty.
"""

import json

import pytest

from repro.robust.checkpoint import CheckpointWriter, load_checkpoint
from repro.robust.clausebus import ClauseBus, load_bus_records
from repro.robust.durablelog import (
    DurableLog,
    LogCorruption,
    audit,
    record_checksum,
)
from repro.robust.journal import SearchJournal, load_journal
from repro.robust.leases import LeaseLog, load_lease_records
from repro.serve.store import KnowledgeStore

UNIT = ([], {}, 1, [])


def _entry(digest: str) -> dict:
    return dict(
        digest=digest, source=None, client_info={}, config=(),
        query_ids=["q"], rounds=[], results={}, witnesses={},
    )


def _round(index: int) -> dict:
    return {"round": index, "queries": ["q"], "outcome": "ok"}


class _Checkpoint:
    sealed = False

    def write(path):
        with CheckpointWriter(path) as writer:
            for index in (0, 1):
                writer.write_unit(("tsp", "typestate", index), UNIT)

    def load(path):
        return len(load_checkpoint(path))

    def append(path):
        CheckpointWriter(path).write_unit(("tsp", "typestate", 2), UNIT)


class _Journal:
    sealed = False

    def write(path):
        journal = SearchJournal(path)
        journal.begin(["q"])
        for index in (1, 2):
            journal.record_round(_round(index))

    def load(path):
        return len(load_journal(path)[1])

    def append(path):
        SearchJournal(path, resume=True).record_round(_round(3))


class _Store:
    sealed = True

    def write(path):
        store = KnowledgeStore(path)
        for digest in ("a", "b"):
            store.record(**_entry(digest * 64))

    def load(path):
        return KnowledgeStore(path).file_entries

    def append(path):
        KnowledgeStore(path).record(**_entry("c" * 64))


class _Leases:
    sealed = True

    def write(path):
        log = LeaseLog(path, worker="w1")
        for now in (1.0, 2.0):
            log.heartbeat(now=now)

    def load(path):
        records = load_lease_records(path)
        return sum(record["type"] == "heartbeat" for record in records)

    def append(path):
        LeaseLog(path, worker="w2").heartbeat(now=3.0)


class _Bus:
    sealed = True

    def write(path):
        bus = ClauseBus(path, worker="w1")
        for index in (1, 2):
            bus.publish("s", index, ["q"], _round(index))

    def load(path):
        records = load_bus_records(path)
        return sum(record["type"] == "round" for record in records)

    def append(path):
        # A publish reads only the file's tail, so the damage before it
        # shows when the publishing task then drains the bus.
        bus = ClauseBus(path, worker="w2")
        assert bus.publish("s", 3, ["q"], _round(3))
        bus.fetch("s", 99, ["q"])


LOGS = {
    "checkpoint": _Checkpoint,
    "journal": _Journal,
    "store": _Store,
    "lease": _Leases,
    "bus": _Bus,
}
SEALED = [name for name, log in LOGS.items() if log.sealed]


def _written(tmp_path, name):
    path = str(tmp_path / f"{name}.jsonl")
    LOGS[name].write(path)
    return path


def _read(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _rewrite_line(path, index, edit) -> None:
    """Replace line ``index`` with ``edit(record)`` as JSON."""
    lines = _read(path).split(b"\n")
    lines[index] = json.dumps(edit(json.loads(lines[index]))).encode()
    with open(path, "wb") as handle:
        handle.write(b"\n".join(lines))


@pytest.mark.parametrize("name", LOGS)
@pytest.mark.parametrize(
    "torn",
    [b'{"type": "unit", "to', b"not json\n", b"[1, 2]\n"],
    ids=["no-newline", "not-json", "not-an-object"],
)
def test_torn_tail_is_skipped_then_cut(tmp_path, name, torn):
    log = LOGS[name]
    path = _written(tmp_path, name)
    intact = _read(path)
    with open(path, "ab") as handle:
        handle.write(torn)
    assert log.load(path) == 2
    log.append(path)
    data = _read(path)
    # Exactly the torn bytes were cut: the intact prefix is kept and one
    # whole record follows it.
    assert data.startswith(intact)
    assert data.count(b"\n", len(intact)) == 1 and data.endswith(b"\n")
    assert isinstance(json.loads(data[len(intact):]), dict)
    assert log.load(path) == 3


@pytest.mark.parametrize("name", LOGS)
def test_interior_corruption_raises_on_load_and_on_append(tmp_path, name):
    log = LOGS[name]
    path = _written(tmp_path, name)
    lines = _read(path).split(b"\n")
    lines[1] = b"garbage"
    with open(path, "wb") as handle:
        handle.write(b"\n".join(lines))
    damaged = _read(path)
    with pytest.raises(LogCorruption, match="corrupt record"):
        log.load(path)
    with pytest.raises(LogCorruption, match="corrupt record"):
        log.append(path)
    assert _read(path).startswith(damaged)


@pytest.mark.parametrize("name", SEALED)
def test_checksum_mismatch_raises(tmp_path, name):
    path = _written(tmp_path, name)
    _rewrite_line(path, 1, lambda record: dict(record, edited=True))
    with pytest.raises(LogCorruption, match="fails its checksum"):
        LOGS[name].load(path)


@pytest.mark.parametrize("name", LOGS)
def test_unknown_header_version_raises(tmp_path, name):
    path = _written(tmp_path, name)

    def bump(header):
        header = dict(header, version=header["version"] + 1)
        if "sha256" in header:
            header["sha256"] = record_checksum(header)
        return header

    _rewrite_line(path, 0, bump)
    with pytest.raises(LogCorruption, match="unsupported .* version 2"):
        LOGS[name].load(path)


@pytest.mark.parametrize("name", LOGS)
def test_missing_file_reads_as_empty(tmp_path, name):
    assert LOGS[name].load(str(tmp_path / "missing.jsonl")) == 0


@pytest.mark.parametrize("name", LOGS)
def test_header_first_and_every_sealed_record_checks(tmp_path, name):
    path = _written(tmp_path, name)
    records, problems, torn = audit(path, name, 1)
    assert problems == [] and torn is False
    assert records[0][1]["type"] == f"{name}_header"
    expected = True if LOGS[name].sealed else None
    assert [sealed for _line, _record, sealed in records] == (
        [expected] * len(records)
    )


class TestPrimitive:
    def test_a_record_carrying_a_bad_checksum_raises_in_any_log(self, tmp_path):
        path = str(tmp_path / "plain.jsonl")
        log = DurableLog(path, "plain", 1)
        log.open()
        log.append({"type": "x", "sha256": "0" * 64})
        with pytest.raises(LogCorruption, match="fails its checksum"):
            DurableLog(path, "plain", 1).read()

    def test_an_append_leaves_the_offset_before_unread_records(self, tmp_path):
        path = str(tmp_path / "plain.jsonl")
        writer, reader = DurableLog(path, "p", 1), DurableLog(path, "p", 1)
        writer.open()
        assert reader.read() == [{"type": "p_header", "version": 1}]
        writer.append({"n": 1})
        reader.append({"n": 2})  # reader has not read n=1 yet
        assert reader.read() == [{"n": 1}, {"n": 2}]
        writer.append({"n": 3})  # writer had not read n=2
        assert writer.read() == [{"n": 2}, {"n": 3}]

    def test_the_lock_is_reentrant_within_a_handle(self, tmp_path):
        log = DurableLog(str(tmp_path / "plain.jsonl"), "p", 1)
        with log.lock():
            log.open()
            log.append({"n": 1})
        assert DurableLog(log.path, "p", 1).read()[1:] == [{"n": 1}]

    def test_audit_reports_instead_of_raising(self, tmp_path):
        path = str(tmp_path / "plain.jsonl")
        with open(path, "wb") as handle:
            handle.write(
                b'{"type": "x"}\n'
                b"garbage\n"
                b'{"type": "p_header", "version": 2}\n'
                b'{"a": 1, "sha256": "00"}\n'
                b'{"torn'
            )
        records, problems, torn = audit(path, "p", 1)
        assert torn is True
        assert [line for line, _record, _sealed in records] == [1, 3, 4]
        assert problems == [
            "line 1: first record is not a p_header",
            "line 2: corrupt interior record (not a trailing crash artifact)",
            "line 3: duplicate p_header",
            "line 3: unsupported p version 2",
            "line 4: checksum mismatch (content altered after it was written)",
        ]
