"""Store hardening: crash-safe compaction (including a SIGKILL kill
matrix over the compaction windows), offline verification,
cross-process coordination of handles on one file, and checksum
integrity."""

import json
import multiprocessing
import os

import pytest

from repro.robust import faults
from repro.serve.store import (
    KnowledgeStore,
    STORE_VERSION,
    entry_checksum,
    verify_store,
)

CONFIG = (5, 1, 30, None, None, None, 64, True)


def _args(digest, source="cli:prog.rp", kind="TypestateClient",
          queries=("typestate:check1",)):
    return dict(
        digest=digest,
        source=source,
        client_info={"kind": kind},
        config=CONFIG,
        query_ids=list(queries),
        rounds=[{"round": 0, "queries": list(queries), "outcome": "ok"}],
        results={q: {"verdict": "proven"} for q in queries},
        witnesses={},
    )


def _digest(seed: str) -> str:
    return (seed * 64)[:64]


class TestCompaction:
    def test_latest_wins_survive_and_superseded_drop(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = KnowledgeStore(path)
        for _ in range(4):
            store.record(**_args(_digest("a")))
        store.record(**_args(_digest("b"), source="cli:other.rp"))
        assert store.file_entries == 5
        assert store.superseded_ratio == pytest.approx(3 / 5)

        stats = store.compact()
        assert stats["entries_before"] == 5
        assert stats["entries_after"] == 2
        assert stats["dropped"] == 3
        assert stats["bytes_after"] < stats["bytes_before"]
        assert store.compactions == 1
        assert store.superseded_ratio == 0.0

        # Both live keys still answer after the rewrite.
        assert store.lookup(
            _digest("a"), CONFIG, ["typestate:check1"]) is not None
        assert store.lookup(
            _digest("b"), CONFIG, ["typestate:check1"]) is not None
        store.close()

        # And after a fresh load of the compacted file.
        reloaded = KnowledgeStore(path)
        assert reloaded.file_entries == 2
        assert reloaded.lookup(
            _digest("a"), CONFIG, ["typestate:check1"]) is not None
        reloaded.close()

    def test_compaction_keeps_seed_tier_entries(self, tmp_path):
        # An entry superseded on its exact key can still be the latest
        # for its (source, kind) seed key — compaction must keep the
        # newest per seed key too.
        path = str(tmp_path / "store.jsonl")
        store = KnowledgeStore(path)
        store.record(**_args(_digest("a"), source="cli:p.rp"))
        store.record(**_args(_digest("b"), source="cli:p.rp"))
        store.compact()
        assert store.lookup_seed("cli:p.rp", "TypestateClient") is not None
        store.close()
        reloaded = KnowledgeStore(path)
        seed = reloaded.lookup_seed("cli:p.rp", "TypestateClient")
        assert seed is not None and seed["digest"] == _digest("b")
        reloaded.close()

    def test_append_still_works_after_compaction(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = KnowledgeStore(path)
        store.record(**_args(_digest("a")))
        store.record(**_args(_digest("a")))
        store.compact()
        store.record(**_args(_digest("c"), source="cli:new.rp"))
        store.close()
        reloaded = KnowledgeStore(path)
        assert reloaded.lookup(
            _digest("c"), CONFIG, ["typestate:check1"]) is not None
        reloaded.close()

    def test_interior_corruption_raises_on_load(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = KnowledgeStore(path)
        store.record(**_args(_digest("a")))
        store.record(**_args(_digest("b")))
        store.close()
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[1] = b'{"type": "entry", TORN\n'
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(ValueError):
            KnowledgeStore(path)


def _compact_and_die(path, site):
    """Child process body: SIGKILL itself at the given compaction
    window (the 'kill' fault action)."""
    plan = faults.FaultPlan.from_specs([f"{site}:kill"])
    store = KnowledgeStore(path)
    with faults.fault_scope(plan):
        store.compact()
    os._exit(1)  # pragma: no cover - the kill must have fired


class TestCompactionKillMatrix:
    """SIGKILL at every compaction window leaves a loadable store —
    the complete old file or the complete new one, never a torn
    hybrid."""

    @pytest.mark.parametrize("site", [
        "store.compact.write",
        "store.compact.rename",
        "store.compact.done",
    ])
    def test_sigkill_window(self, tmp_path, site):
        path = str(tmp_path / "store.jsonl")
        store = KnowledgeStore(path)
        for _ in range(3):
            store.record(**_args(_digest("a")))
        store.record(**_args(_digest("b"), source="cli:other.rp"))
        store.close()

        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_compact_and_die, args=(path, site))
        child.start()
        child.join(30)
        assert not child.is_alive()
        assert child.exitcode == -9  # died by SIGKILL, not os._exit

        # Whichever side of the rename the kill landed on, the store
        # file is complete: it loads, verifies, and answers both keys.
        problems, summary = verify_store(path)
        assert problems == []
        assert summary["entries"] in (2, 4)  # new file or old file
        survivor = KnowledgeStore(path)
        assert survivor.lookup(
            _digest("a"), CONFIG, ["typestate:check1"]) is not None
        assert survivor.lookup(
            _digest("b"), CONFIG, ["typestate:check1"]) is not None
        # Compacting again (no crash) always converges to 2 entries.
        survivor.compact()
        assert survivor.file_entries == 2
        survivor.close()


class TestVerify:
    def test_healthy_store(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = KnowledgeStore(path)
        store.record(**_args(_digest("a")))
        store.close()
        problems, summary = verify_store(path)
        assert problems == []
        assert summary["entries"] == 1
        assert summary["checksummed"] == 1
        assert summary["torn_tail"] is False

    def test_torn_tail_is_noted_not_a_problem(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = KnowledgeStore(path)
        store.record(**_args(_digest("a")))
        store.close()
        with open(path, "ab") as handle:
            handle.write(b'{"type": "entry", "dig')
        problems, summary = verify_store(path)
        assert problems == []
        assert summary["torn_tail"] is True

    def test_interior_corruption_is_a_problem(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = KnowledgeStore(path)
        store.record(**_args(_digest("a")))
        store.record(**_args(_digest("b")))
        store.close()
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[1] = b"garbage not json\n"
        with open(path, "wb") as handle:
            handle.writelines(lines)
        problems, _summary = verify_store(path)
        assert any("corrupt interior" in p for p in problems)

    def test_checksum_mismatch_is_a_problem(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = KnowledgeStore(path)
        store.record(**_args(_digest("a")))
        store.close()
        with open(path) as handle:
            lines = handle.read().splitlines()
        entry = json.loads(lines[1])
        entry["results"]["typestate:check1"]["verdict"] = "impossible"
        lines[1] = json.dumps(entry, sort_keys=True)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        problems, _summary = verify_store(path)
        assert any("checksum mismatch" in p for p in problems)

    def test_legacy_entry_without_checksum_is_noted(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = KnowledgeStore(path)
        store.record(**_args(_digest("a")))
        store.close()
        with open(path) as handle:
            lines = handle.read().splitlines()
        entry = json.loads(lines[1])
        del entry["sha256"]
        lines[1] = json.dumps(entry, sort_keys=True)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        problems, summary = verify_store(path)
        assert problems == []
        assert summary["legacy_entries"] == 1

    def test_bad_version_is_a_problem(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps(
                {"type": "store_header", "version": STORE_VERSION + 1}
            ) + "\n")
        problems, _summary = verify_store(path)
        assert any("unsupported store version" in p for p in problems)

    def test_missing_file_is_a_problem(self, tmp_path):
        problems, _summary = verify_store(str(tmp_path / "nope.jsonl"))
        assert problems


def _record_in_child(path, digest, source):
    store = KnowledgeStore(path)
    store.record(**_args(digest, source=source))
    store.close()
    os._exit(0)


class TestSharedMode:
    def test_two_handles_interleave_and_refresh(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        a = KnowledgeStore(path)
        b = KnowledgeStore(path)
        a.record(**_args(_digest("a"), source="cli:a.rp"))
        b.record(**_args(_digest("b"), source="cli:b.rp"))
        # Each handle sees the other's append via tail refresh.
        assert a.lookup(
            _digest("b"), CONFIG, ["typestate:check1"]) is not None
        assert b.lookup(
            _digest("a"), CONFIG, ["typestate:check1"]) is not None
        a.close()
        b.close()

    def test_cross_process_append_is_seen(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        parent = KnowledgeStore(path)
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(
            target=_record_in_child, args=(path, _digest("c"), "cli:c.rp")
        )
        child.start()
        child.join(30)
        assert child.exitcode == 0
        assert parent.lookup(
            _digest("c"), CONFIG, ["typestate:check1"]) is not None
        parent.close()

    def test_torn_tail_truncated_before_shared_append(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = KnowledgeStore(path)
        store.record(**_args(_digest("a")))
        with open(path, "ab") as handle:
            handle.write(b'{"type": "entry", "half')
        store.record(**_args(_digest("b"), source="cli:b.rp"))
        store.close()
        problems, summary = verify_store(path)
        assert problems == []
        assert summary["torn_tail"] is False
        assert summary["entries"] == 2

    def test_append_after_a_damaged_line_raises_and_keeps_the_file(
        self, tmp_path
    ):
        # a read the store before b appended two entries; the first of
        # them is then damaged.  a's next append reads on from where it
        # stopped, meets the damaged line before b's intact one, and
        # must raise rather than cut both as a torn tail.
        path = str(tmp_path / "store.jsonl")
        a = KnowledgeStore(path)
        b = KnowledgeStore(path)
        b.record(**_args(_digest("b"), source="cli:b.rp"))
        b.record(**_args(_digest("c"), source="cli:c.rp"))
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[1] = b"garbage\n"
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(ValueError, match="corrupt record"):
            a.record(**_args(_digest("a"), source="cli:a.rp"))
        with open(path, "rb") as handle:
            assert handle.read() == b"".join(lines)
        problems, _summary = verify_store(path)
        assert any("corrupt interior" in p for p in problems)

    def test_compaction_under_other_handle_triggers_reload(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        a = KnowledgeStore(path)
        b = KnowledgeStore(path)
        for _ in range(3):
            a.record(**_args(_digest("a")))
        assert b.lookup(
            _digest("a"), CONFIG, ["typestate:check1"]) is not None
        a.compact()
        # b's next lookup notices the new inode and reloads cleanly.
        assert b.lookup(
            _digest("a"), CONFIG, ["typestate:check1"]) is not None
        assert b.file_entries == 1
        # And b can still append to the compacted file.
        b.record(**_args(_digest("d"), source="cli:d.rp"))
        assert a.lookup(
            _digest("d"), CONFIG, ["typestate:check1"]) is not None
        a.close()
        b.close()


class TestChecksums:
    def test_recorded_entries_carry_valid_checksums(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = KnowledgeStore(path)
        entry = store.record(**_args(_digest("a")))
        assert entry["sha256"] == entry_checksum(entry)
        store.close()

    def test_checksum_excludes_itself(self):
        entry = {"type": "entry", "digest": _digest("a")}
        digest = entry_checksum(entry)
        entry["sha256"] = digest
        assert entry_checksum(entry) == digest
