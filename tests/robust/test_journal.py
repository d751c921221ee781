"""The append-only CEGAR search journal: recording, replay, mismatch
detection, and crash tolerance of the underlying JSONL file."""

import json
from dataclasses import replace

import pytest

from repro.bench.harness import DEFAULT_CONFIG, analysis_setups, prepare
from repro.core import Tracer, TracerConfig
from repro.core.stats import QueryStatus
from repro.core.tracer import WarmStart, run_query_group
from repro.lang import parse_program
from repro.robust.certify import CertificateStore
from repro.robust.faults import FaultPlan, fault_scope
from repro.robust.journal import (
    JOURNAL_VERSION,
    JournalMismatch,
    SearchJournal,
    clause_from_jsonable,
    clause_to_jsonable,
    command_from_dict,
    command_to_dict,
    load_journal,
    trace_from_jsonable,
    trace_to_jsonable,
)
from repro.typestate import TypestateClient, TypestateQuery, file_automaton

PROGRAM = parse_program(
    """
    x = new File
    y = x
    x.open()
    y.close()
    observe check1
    observe check2
    """
)

Q_PROVEN = TypestateQuery("check1", frozenset({"closed"}))
Q_IMPOSSIBLE = TypestateQuery("check2", frozenset({"opened"}))


def _client():
    return TypestateClient(
        PROGRAM, file_automaton(), "File", frozenset({"x", "y"})
    )


def _config():
    return TracerConfig(k=5, max_iterations=30)


class TestCodecs:
    def test_clause_round_trip(self):
        clause = frozenset({("b", False), ("a", True)})
        encoded = clause_to_jsonable(clause)
        assert encoded == [["a", True], ["b", False]]  # sorted, stable
        assert clause_from_jsonable(encoded) == clause

    def test_command_round_trip_covers_the_program(self):
        from repro.lang.ast import atoms_of

        for command in atoms_of(PROGRAM):
            encoded = command_to_dict(command)
            json.dumps(encoded)  # must be JSON-able as-is
            assert command_from_dict(encoded) == command

    def test_trace_round_trip(self):
        from repro.lang.ast import atoms_of

        trace = tuple(atoms_of(PROGRAM))
        assert trace_from_jsonable(trace_to_jsonable(trace)) == trace


class TestRecordReplay:
    def _solve(self, queries, journal):
        with journal:
            solved = Tracer(_client(), _config(), journal=journal).solve_all(
                queries
            )
        return solved

    def test_fresh_run_writes_header_and_rounds(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        solved = self._solve([Q_PROVEN], SearchJournal(path))
        assert solved[Q_PROVEN].status is QueryStatus.PROVEN
        header, rounds = load_journal(path)
        assert header["version"] == JOURNAL_VERSION
        assert header["queries"] == [str(Q_PROVEN)]
        assert rounds
        assert all(r["round"] == i + 1 for i, r in enumerate(rounds))

    def test_resume_reproduces_records_bit_identically(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        queries = [Q_PROVEN, Q_IMPOSSIBLE]
        first = self._solve(queries, SearchJournal(path))
        second = self._solve(queries, SearchJournal(path, resume=True))
        for query in queries:
            a, b = first[query], second[query]
            assert a.status == b.status
            assert a.abstraction == b.abstraction
            assert a.abstraction_cost == b.abstraction_cost
            assert a.iterations == b.iterations
            assert a.forward_runs == b.forward_runs
            assert a.forward_cache_hits == b.forward_cache_hits

    def test_resume_does_not_rerun_recorded_rounds(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        self._solve([Q_PROVEN], SearchJournal(path))

        class ExplodingClient(TypestateClient):
            def run_forward(self, p):
                raise AssertionError("replay must not run the analysis")

        client = ExplodingClient(
            PROGRAM, file_automaton(), "File", frozenset({"x", "y"})
        )
        with SearchJournal(path, resume=True) as journal:
            solved = Tracer(client, _config(), journal=journal).solve_all(
                [Q_PROVEN]
            )
        assert solved[Q_PROVEN].status is QueryStatus.PROVEN

    def test_resume_after_truncated_tail(self, tmp_path):
        """A SIGKILL mid-append leaves a torn last line; resume must
        replay the intact prefix and search the rest live."""
        path = str(tmp_path / "journal.jsonl")
        self._solve([Q_PROVEN], SearchJournal(path))
        with open(path, "r+") as handle:
            content = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(content[: len(content) - 20])  # tear the tail
        solved = self._solve([Q_PROVEN], SearchJournal(path, resume=True))
        assert solved[Q_PROVEN].status is QueryStatus.PROVEN

    def test_resume_with_different_queries_rejected(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        self._solve([Q_PROVEN], SearchJournal(path))
        with pytest.raises(JournalMismatch):
            self._solve([Q_IMPOSSIBLE], SearchJournal(path, resume=True))

    def test_resume_with_tampered_abstraction_rejected(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        self._solve([Q_PROVEN], SearchJournal(path))
        with open(path) as handle:
            lines = handle.read().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "round" and record.get("abstraction"):
                record["abstraction"] = ["ghost"]
            doctored.append(json.dumps(record, sort_keys=True))
        with open(path, "w") as handle:
            handle.write("\n".join(doctored) + "\n")
        with pytest.raises(JournalMismatch):
            self._solve([Q_PROVEN], SearchJournal(path, resume=True))

    def test_fresh_journal_truncates_stale_file(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        self._solve([Q_IMPOSSIBLE], SearchJournal(path))
        self._solve([Q_PROVEN], SearchJournal(path))  # fresh, not resume
        header, _rounds = load_journal(path)
        assert header["queries"] == [str(Q_PROVEN)]

    def test_journal_emits_replay_events(self, tmp_path):
        from repro.obs import trace as obs
        from repro.obs.sinks import MemorySink

        path = str(tmp_path / "journal.jsonl")
        self._solve([Q_PROVEN], SearchJournal(path))
        sink = MemorySink()
        with obs.tracing(sink):
            self._solve([Q_PROVEN], SearchJournal(path, resume=True))
        names = [
            record.get("name")
            for record in sink.events
            if record.get("type") == "event"
        ]
        assert "journal_replayed" in names


class TestReplayPhase:
    def test_resumed_rounds_are_booked_as_replay(self, tmp_path):
        """A resumed round runs in a ``replay_round`` span of the
        ``replay`` phase; ``synthesis`` keeps only live MinCostSAT."""
        from repro.obs import trace as obs
        from repro.obs.sinks import MemorySink
        from repro.obs.summarize import validate_trace

        path = str(tmp_path / "journal.jsonl")
        with SearchJournal(path) as journal:
            Tracer(_client(), _config(), journal=journal).solve_all([Q_PROVEN])
        sink = MemorySink()
        with obs.tracing(sink), obs.phase_timing() as timer:
            with SearchJournal(path, resume=True) as journal:
                Tracer(_client(), _config(), journal=journal).solve_all([Q_PROVEN])
        assert validate_trace(sink.events) == []
        phases = {
            record["phase"]
            for record in sink.events
            if record["type"] == "span_start" and record["name"] == "replay_round"
        }
        assert phases == {"replay"}
        assert timer.totals.get("replay", 0.0) > 0.0
        assert "synthesis" not in timer.totals

    def test_bus_rounds_are_booked_as_replay(self, tmp_path):
        """A round drained from the clause bus is re-applied in a
        ``replay_round`` span of the ``replay`` phase."""
        from repro.obs import trace as obs
        from repro.obs.sinks import MemorySink
        from repro.robust.clausebus import ClauseBus, ClauseFeed

        path = str(tmp_path / "run.bus")
        publisher = ClauseFeed(ClauseBus(path, worker="w1"), scope="t")
        Tracer(_client(), _config(), clause_feed=publisher).solve_all([Q_PROVEN])
        assert publisher.published
        reader = ClauseFeed(ClauseBus(path, worker="w2"), scope="t")
        sink = MemorySink()
        with obs.tracing(sink):
            Tracer(_client(), _config(), clause_feed=reader).solve_all([Q_PROVEN])
        assert reader.imported
        bus_spans = [
            record
            for record in sink.events
            if record["type"] == "span_start"
            and record["name"] == "replay_round"
            and record.get("attrs", {}).get("source") == "bus"
        ]
        assert bus_spans
        assert {record["phase"] for record in bus_spans} == {"replay"}


#: The bench configuration with a deterministic step budget checked on
#: every tick, so some backward passes run out of steps.
STEPPED = replace(DEFAULT_CONFIG, max_steps=3000, budget_check_every=1)


@pytest.fixture(scope="module")
def hedc_escape():
    """hedc's escape unit: 30 rounds under the bench configuration, two
    of them forward-cache hits."""
    ((client, queries),) = analysis_setups(prepare("hedc"), "escape")
    return client, queries


def _outcomes(records):
    return {
        str(query): (
            record.status,
            record.iterations,
            record.forward_runs,
            record.forward_cache_hits,
            record.abstraction,
            record.abstraction_cost,
            record.max_disjuncts,
        )
        for query, record in records.items()
    }


def _without_seconds(path):
    """A journal's records with their wall-clock charges dropped."""
    records = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            record.pop("seconds", None)
            for survivor in record.get("survivors", []):
                survivor.pop("seconds", None)
            records.append(record)
    return records


class TestResumeFromEveryCut:
    """A search resumed from its journal cut after any round reproduces
    the uninterrupted one, forward-cache hits and ``cached`` flags
    included: a live round that re-chooses a replayed round's
    abstraction finds its fixpoint cached, as the uninterrupted search
    did, without paying for it from its own budget."""

    @pytest.mark.parametrize(
        "config", [DEFAULT_CONFIG, STEPPED], ids=["default", "max_steps"]
    )
    def test_every_cut_resumes_to_the_uninterrupted_search(
        self, tmp_path, hedc_escape, config
    ):
        client, queries = hedc_escape
        path = str(tmp_path / "journal.jsonl")

        def solve(journal):
            with journal:
                return _outcomes(
                    run_query_group(client, queries, config, journal=journal)
                )

        expected = solve(SearchJournal(path))
        expected_journal = _without_seconds(path)
        assert any(record.get("cached") for record in expected_journal)
        with open(path) as handle:
            lines = handle.readlines()
        for cut in range(1, len(lines) - 1):
            with open(path, "w") as handle:
                handle.writelines(lines[: cut + 1])
            assert solve(SearchJournal(path, resume=True)) == expected, cut
            assert _without_seconds(path) == expected_journal, cut


#: Faults that make a lenient search record every kind of outcome.
FAULTS = (
    "backward:raise:at=2",
    "backward:raise:error=explosion,at=6",
    "backward:raise:error=explosion,at=10,times=5",
    "forward_run:raise:at=4",
)


class TestEveryOutcomeReplays:
    """Every round and survivor outcome a journal can hold replays to
    the recorded search's records and certificates, by journal resume
    and by the warm-start replay tier."""

    @pytest.fixture(scope="class")
    def recorded(self, hedc_escape, tmp_path_factory):
        client, queries = hedc_escape
        path = str(tmp_path_factory.mktemp("outcomes") / "journal.jsonl")
        certificates = CertificateStore()
        with fault_scope(FaultPlan.from_specs(FAULTS)):
            with SearchJournal(path) as journal:
                records = run_query_group(
                    client,
                    queries,
                    STEPPED,
                    journal=journal,
                    certificates=certificates,
                )
        return path, _outcomes(records), certificates.certificates

    def test_journal_holds_every_outcome(self, recorded):
        _header, rounds = load_journal(recorded[0])
        survivors = [s for r in rounds for s in r["survivors"]]
        assert {r["outcome"] for r in rounds} == {"ok", "impossible", "error"}
        assert {s["outcome"] for s in survivors} == {
            "clauses", "budget", "explosion", "error",
        }
        assert any(s["degraded"] for s in survivors)

    def test_journal_resume_replays_every_outcome(
        self, recorded, hedc_escape, tmp_path
    ):
        client, queries = hedc_escape
        path, outcomes, certificates = recorded
        copy = tmp_path / "journal.jsonl"
        with open(path, "rb") as handle:
            copy.write_bytes(handle.read())
        replayed = CertificateStore()
        with SearchJournal(str(copy), resume=True) as journal:
            records = run_query_group(
                client,
                queries,
                STEPPED,
                journal=journal,
                certificates=replayed,
            )
        assert journal.replayed_rounds == len(load_journal(path)[1])
        assert _outcomes(records) == outcomes
        assert replayed.certificates == certificates

    def test_warm_start_replays_every_outcome(self, recorded, hedc_escape):
        client, queries = hedc_escape
        path, outcomes, certificates = recorded
        rounds = load_journal(path)[1]
        warm = WarmStart(rounds=rounds)
        replayed = CertificateStore()
        records = run_query_group(
            client, queries, STEPPED, certificates=replayed, warm_start=warm
        )
        assert warm.replayed_rounds == len(rounds)
        assert _outcomes(records) == outcomes
        assert replayed.certificates == certificates


def _unrefuting(record) -> dict:
    """``record`` with the clauses of its first clause-learning survivor
    replaced by one clause the recorded abstraction satisfies."""
    record = json.loads(json.dumps(record))
    p = set(record["abstraction"])
    for survivor in record["survivors"]:
        if survivor["outcome"] == "clauses":
            var = survivor["clauses"][0][0][0]
            survivor["clauses"] = [[[var, var in p]]]
            return record
    raise AssertionError("no survivor learned clauses")


class TestClausesMustRefute:
    """A recorded survivor whose clauses do not refute its round's
    abstraction is a mismatch, from every round source."""

    @pytest.fixture(scope="class")
    def recorded(self, hedc_escape, tmp_path_factory):
        client, queries = hedc_escape
        path = str(tmp_path_factory.mktemp("refute") / "journal.jsonl")
        with SearchJournal(path) as journal:
            run_query_group(client, queries, DEFAULT_CONFIG, journal=journal)
        header, rounds = load_journal(path)
        target = next(
            index
            for index, rec in enumerate(rounds)
            if rec["round"] > 1
            and any(s["outcome"] == "clauses" for s in rec["survivors"])
        )
        doctored = list(rounds)
        doctored[target] = _unrefuting(rounds[target])
        return header, doctored, target

    def test_journal_resume_rejects(self, recorded, hedc_escape, tmp_path):
        client, queries = hedc_escape
        header, rounds, _target = recorded
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as handle:
            for record in [header] + [dict(r, type="round") for r in rounds]:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        with pytest.raises(JournalMismatch, match="do not eliminate"):
            with SearchJournal(path, resume=True) as journal:
                run_query_group(
                    client, queries, DEFAULT_CONFIG, journal=journal
                )

    def test_bus_drain_rejects(self, recorded, hedc_escape, tmp_path):
        from repro.robust.clausebus import (
            ClauseBus,
            ClauseFeed,
            ClauseFeedMismatch,
        )

        client, queries = hedc_escape
        _header, rounds, target = recorded
        path = str(tmp_path / "run.bus")
        publisher = ClauseBus(path, worker="w1")
        for rec in rounds[: target + 1]:
            publisher.publish("t", rec["round"], rec["queries"], rec)
        feed = ClauseFeed(ClauseBus(path, worker="w2"), scope="t")
        with pytest.raises(ClauseFeedMismatch, match="do not eliminate"):
            run_query_group(client, queries, DEFAULT_CONFIG, clause_feed=feed)
        assert feed.imported == target + 1
