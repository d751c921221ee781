"""JSONL checkpoints of completed evaluation units.

A long parallel evaluation that dies at unit 47 of 50 should not have
to redo the first 46.  The bench harness appends one self-contained
JSONL line per *completed* unit — its query records, its metrics
snapshot, and any verdict certificates it emitted — flushed and
fsync'd immediately, so the file is valid after a crash at any point.
``repro eval --resume`` then merges the checkpointed units and runs
only the missing ones; the merge is deterministic because units are
keyed by ``(benchmark, analysis, index)`` and merged in unit order, so
a resumed evaluation is record-for-record identical to an uninterrupted
one (worker trace events are the one thing not checkpointed — a
resumed unit replays no spans).

Crash semantics are the durable-log rule of
:mod:`repro.robust.durablelog` (``docs/ROBUSTNESS.md``, "Durable
logs"): a torn final line is skipped and cut before the next append;
a damaged line before it raises.

Granularity: this file checkpoints *whole units*, and stays at that
granularity so existing checkpoints and tooling keep working.  The
lease scheduler (:mod:`repro.robust.scheduler`) layers a second,
finer-grained durability record next to it — the lease log at
``checkpoint_path + ".leases"`` records each durably-completed *query
group*, so ``--resume`` after a crash mid-unit re-solves only the
groups that never completed, then re-checkpoints the finished unit
here (see :func:`repro.bench.parallel._run_leased`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.stats import CacheCounters, QueryRecord
from repro.robust.durablelog import DurableLog

__all__ = [
    "CheckpointWriter",
    "UnitKey",
    "load_checkpoint",
    "unit_from_dict",
    "unit_to_dict",
]

CHECKPOINT_VERSION = 1

UnitKey = Tuple[str, str, int]  # (benchmark, analysis, unit index)

#: What a checkpoint stores per unit: records + metrics snapshot +
#: how many attempts the unit took + the unit's verdict certificates
#: (trace events are not persisted).
UnitPayload = Tuple[
    List[QueryRecord], Dict[str, CacheCounters], int, List[dict]
]


def unit_to_dict(key: UnitKey, payload: UnitPayload) -> dict:
    from repro.bench.export import record_to_dict

    records, metrics, attempts, certificates = payload
    return {
        "type": "unit",
        "benchmark": key[0],
        "analysis": key[1],
        "index": key[2],
        "attempts": attempts,
        "records": [record_to_dict(record) for record in records],
        "metrics": {
            name: {"hits": counters.hits, "misses": counters.misses}
            for name, counters in sorted(metrics.items())
        },
        "certificates": list(certificates),
    }


def unit_from_dict(data: dict) -> Tuple[UnitKey, UnitPayload]:
    from repro.bench.export import record_from_dict

    key = (data["benchmark"], data["analysis"], int(data["index"]))
    records = [record_from_dict(item) for item in data["records"]]
    metrics = {
        name: CacheCounters(hits=int(entry["hits"]), misses=int(entry["misses"]))
        for name, entry in data.get("metrics", {}).items()
    }
    certificates = list(data.get("certificates", []))
    return key, (records, metrics, int(data.get("attempts", 1)), certificates)


def _log(path: str) -> DurableLog:
    return DurableLog(path, "checkpoint", CHECKPOINT_VERSION)


class CheckpointWriter:
    """Append-only JSONL writer; one fsync'd line per completed unit.
    Opening reads the whole checkpoint, so a damaged one raises here."""

    def __init__(self, path: str):
        self.path = path
        self._log = _log(path)
        self._log.open()

    def write_unit(self, key: UnitKey, payload: UnitPayload) -> None:
        self._log.append(unit_to_dict(key, payload))

    def close(self) -> None:
        """Nothing to release: every append opens its own handle."""

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def load_checkpoint(path: str) -> Dict[UnitKey, UnitPayload]:
    """Read every intact unit line of a checkpoint (missing file =
    empty).

    A trailing truncated line — the crash the checkpoint exists for may
    have happened mid-write — is skipped; everything before it is still
    recovered.  Corruption *inside* the file (a damaged interior line,
    a malformed unit record, an unknown version) raises instead: that
    is not a crash artifact, and pretending the affected units never
    ran would silently redo — or worse, half-merge — finished work."""
    completed: Dict[UnitKey, UnitPayload] = {}
    for data in _log(path).read():
        if data.get("type") != "unit":
            continue  # headers; unknown types are forward-compatible
        try:
            key, payload = unit_from_dict(data)
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"{path}: malformed unit record: {error}")
        completed[key] = payload
    return completed
