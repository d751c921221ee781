"""JSONL checkpoint round-trips and crash tolerance."""

import json

import pytest

from repro.core.stats import CacheCounters, QueryRecord, QueryStatus
from repro.robust.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointWriter,
    load_checkpoint,
    unit_from_dict,
    unit_to_dict,
)

KEY = ("tsp", "typestate", 2)
RECORDS = [
    QueryRecord(
        query_id="q1",
        status=QueryStatus.PROVEN,
        iterations=3,
        abstraction=frozenset({"a", "b"}),
        abstraction_cost=2,
        time_seconds=0.125,
        max_disjuncts=4,
        forward_runs=3,
        forward_cache_hits=1,
    ),
    QueryRecord(query_id="q2", status=QueryStatus.EXHAUSTED, iterations=30),
]
METRICS = {"forward_run": CacheCounters(hits=5, misses=2)}
CERTIFICATES = [{"type": "certificate", "query": "q1", "verdict": "proven"}]
PAYLOAD = (RECORDS, METRICS, 2, CERTIFICATES)


class TestRoundTrip:
    def test_unit_dict_round_trip(self):
        key, payload = unit_from_dict(unit_to_dict(KEY, PAYLOAD))
        assert key == KEY
        records, metrics, attempts, certificates = payload
        assert records == RECORDS
        assert metrics == METRICS
        assert attempts == 2
        assert certificates == CERTIFICATES

    def test_write_then_load(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with CheckpointWriter(path) as writer:
            writer.write_unit(KEY, PAYLOAD)
        loaded = load_checkpoint(path)
        assert set(loaded) == {KEY}
        assert loaded[KEY][0] == RECORDS

    def test_reopening_appends_without_second_header(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with CheckpointWriter(path) as writer:
            writer.write_unit(KEY, PAYLOAD)
        other = ("tsp", "typestate", 3)
        with CheckpointWriter(path) as writer:
            writer.write_unit(other, PAYLOAD)
        with open(path) as handle:
            lines = [json.loads(l) for l in handle if l.strip()]
        assert [l["type"] for l in lines] == ["checkpoint_header", "unit", "unit"]
        assert set(load_checkpoint(path)) == {KEY, other}


class TestCrashTolerance:
    def test_missing_file_is_empty(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "nope.jsonl")) == {}

    def test_torn_tail_is_ignored(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with CheckpointWriter(path) as writer:
            writer.write_unit(KEY, PAYLOAD)
        with open(path, "a") as handle:
            handle.write('{"type": "unit", "benchmark": "tsp", "ana')  # torn
        loaded = load_checkpoint(path)
        assert set(loaded) == {KEY}

    def test_unknown_version_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with open(path, "w") as handle:
            handle.write(
                json.dumps(
                    {"type": "checkpoint_header", "version": CHECKPOINT_VERSION + 1}
                )
                + "\n"
            )
        with pytest.raises(ValueError):
            load_checkpoint(path)
