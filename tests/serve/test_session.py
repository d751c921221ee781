"""The resident session: warm-start identity (store-seeded searches are
bit-identical to cold ones) across all three bundled clients, the
clause tier on edited programs, stale-entry fallback, and journal
precedence."""

import collections
import gc
import json
import weakref

import pytest

import repro.core.tracer as tracer_mod
import repro.robust.journal as journal_mod
import repro.serve.store as store_mod
from repro.core.tracer import TracerConfig
from repro.escape.client import EscapeQuery
from repro.provenance.client import ProvenanceQuery
from repro.robust.certify import CertificateStore, QueryEvidence
from repro.robust.durablelog import LogCorruption
from repro.robust.journal import SearchJournal
from repro.serve.dispatch import solve_request
from repro.serve.session import AnalysisSession, describe_client
from repro.serve.store import KnowledgeStore, config_key, program_digest
from repro.typestate.client import TypestateQuery

CONFIG = TracerConfig(k=5, max_iterations=30)

TYPESTATE_TEXT = """
x = new File
y = x
x.open()
y.close()
observe check1
observe check2
"""

ESCAPE_TEXT = """
u = new h1
v = new h2
v.f = u
observe pc
"""

PROVENANCE_TEXT = """
u = new h1
v = new h2
w = u
observe pc
"""


def _typestate(session):
    client, *_rest = session.typestate_client(TYPESTATE_TEXT)
    return client, [
        TypestateQuery("check1", frozenset({"closed"})),
        TypestateQuery("check2", frozenset({"closed"})),
    ]


def _escape(session):
    client, _universe = session.escape_client(ESCAPE_TEXT)
    return client, [EscapeQuery("pc", "u")]


def _provenance(session):
    client, _universe = session.provenance_client(PROVENANCE_TEXT)
    return client, [ProvenanceQuery("pc", "u", frozenset({"h1"}))]


CLIENTS = {
    "typestate": _typestate,
    "escape": _escape,
    "provenance": _provenance,
}


def _solve_pass(tmp_path, store_path, build, tag):
    """One store-attached solve in a fresh session (fresh forward
    cache), with a journal and a certificate store; returns everything
    the identity assertions compare."""
    journal_path = str(tmp_path / f"journal-{tag}.jsonl")
    with KnowledgeStore(store_path) as store:
        session = AnalysisSession(store=store)
        client, queries = build(session)
        certs = CertificateStore()
        with SearchJournal(journal_path) as journal:
            result = session.solve(
                client,
                queries,
                CONFIG,
                journal=journal,
                certificates=certs,
                source="test:prog",
            )
        verdicts = {
            str(q): (r.status.value, r.iterations, r.abstraction)
            for q, r in result.records.items()
        }
    return result, verdicts, certs, journal_path


class TestWarmStartIdentity:
    @pytest.mark.parametrize("kind", sorted(CLIENTS))
    def test_replay_tier_is_bit_identical_to_cold(self, tmp_path, kind):
        store_path = str(tmp_path / "store.jsonl")
        build = CLIENTS[kind]
        cold, cold_verdicts, cold_certs, cold_journal = _solve_pass(
            tmp_path, store_path, build, "cold"
        )
        warm, warm_verdicts, warm_certs, warm_journal = _solve_pass(
            tmp_path, store_path, build, "warm"
        )
        assert cold.mode == "cold" and not cold.store_hit
        assert warm.mode == "replay" and warm.store_hit
        assert warm_verdicts == cold_verdicts
        # Certificates (including annotation digests and witness
        # evidence) must be byte-identical.
        assert json.dumps(
            warm_certs.certificates, sort_keys=True
        ) == json.dumps(cold_certs.certificates, sort_keys=True)
        # The warm journal is written through, so the file on disk is
        # bit-identical to the cold run's.
        with open(cold_journal, "rb") as a, open(warm_journal, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("kind", sorted(CLIENTS))
    def test_replay_tier_runs_zero_forward_fixpoints(self, tmp_path, kind):
        store_path = str(tmp_path / "store.jsonl")
        build = CLIENTS[kind]
        _solve_pass(tmp_path, store_path, build, "cold")
        with KnowledgeStore(store_path) as store:
            session = AnalysisSession(store=store)
            client, queries = build(session)

            def boom(_p):
                raise AssertionError(
                    "replay tier must not run the forward fixpoint"
                )

            client.run_forward = boom
            certs = CertificateStore()
            result = session.solve(
                client, queries, CONFIG,
                certificates=certs, source="test:prog",
            )
        assert result.mode == "replay"
        assert len(certs.certificates) == len(queries)

    def test_replay_tier_is_booked_as_the_replay_phase(self, tmp_path):
        """A replay read re-enacts its rounds in the ``replay`` phase;
        ``synthesis`` keeps only MinCostSAT, which it runs none of."""
        from repro.obs import trace as obs

        store_path = str(tmp_path / "store.jsonl")
        _solve_pass(tmp_path, store_path, _typestate, "cold")
        with KnowledgeStore(store_path) as store:
            session = AnalysisSession(store=store)
            client, queries = _typestate(session)
            with obs.phase_timing() as timer:
                result = session.solve(client, queries, CONFIG, source="test:prog")
        assert result.mode == "replay"
        assert timer.totals.get("replay", 0.0) > 0.0
        assert "synthesis" not in timer.totals

    def test_warm_without_store_is_plain_cold(self):
        session = AnalysisSession()
        client, queries = _typestate(session)
        result = session.solve(client, queries, CONFIG)
        assert result.mode == "cold"
        assert result.digest is None
        assert result.rounds == []


class TestClauseTier:
    def test_edited_program_seeds_from_prior_witnesses(self, tmp_path):
        store_path = str(tmp_path / "store.jsonl")
        with KnowledgeStore(store_path) as store:
            session = AnalysisSession(store=store)
            client, queries = _typestate(session)
            cold = session.solve(
                client, queries, CONFIG, source="test:prog"
            )
        edited = TYPESTATE_TEXT + "z = new Sock\n"
        with KnowledgeStore(store_path) as store:
            session = AnalysisSession(store=store)
            client, *_rest = session.typestate_client(edited)
            warm = session.solve(
                client, queries, CONFIG, source="test:prog"
            )
        assert warm.mode == "clauses"
        assert session.stats["warm_seeded_clauses"] > 0
        # Same verdicts as a cold solve of the edited program.
        baseline_session = AnalysisSession()
        baseline_client, *_rest = baseline_session.typestate_client(edited)
        baseline = baseline_session.solve(baseline_client, queries, CONFIG)
        for query in queries:
            assert (
                warm.records[query].status
                is baseline.records[query].status
            )
            assert (
                warm.records[query].abstraction
                == baseline.records[query].abstraction
            )
        # Seeded clauses prune refuted abstractions, so the warm search
        # never takes more rounds than the cold one.
        for query in queries:
            assert (
                warm.records[query].iterations
                <= baseline.records[query].iterations
            )

    def test_different_source_does_not_seed(self, tmp_path):
        store_path = str(tmp_path / "store.jsonl")
        with KnowledgeStore(store_path) as store:
            session = AnalysisSession(store=store)
            client, queries = _typestate(session)
            session.solve(client, queries, CONFIG, source="test:a")
        with KnowledgeStore(store_path) as store:
            session = AnalysisSession(store=store)
            client, *_rest = session.typestate_client(
                TYPESTATE_TEXT + "z = new Sock\n"
            )
            result = session.solve(client, queries, CONFIG, source="test:b")
        assert result.mode == "cold"


def _first_clauses(entry):
    """The first recorded survivor entry that learned clauses."""
    return next(
        survivor
        for rnd in entry["rounds"]
        for survivor in rnd["survivors"]
        if survivor["clauses"]
    )


def _clause_literal_not_a_pair(entry):
    _first_clauses(entry)["clauses"][0] = [1]


def _seconds_not_a_number(entry):
    entry["rounds"][0]["seconds"] = "fast"


def _survivors_not_entries(entry):
    rnd = next(rnd for rnd in entry["rounds"] if rnd["survivors"])
    rnd["survivors"] = [s["query"] for s in rnd["survivors"]]


class TestStaleEntries:
    def _assert_stale_then_cold(self, tmp_path, tamper):
        store_path = str(tmp_path / "store.jsonl")
        with KnowledgeStore(store_path) as store:
            session = AnalysisSession(store=store)
            client, queries = _typestate(session)
            session.solve(client, queries, CONFIG, source="test:prog")
            digest = describe_client(client)
            entry = store.lookup(
                program_digest(client.program, digest),
                config_key(CONFIG),
                [str(q) for q in queries],
            )
            assert entry is not None
            # Tamper with the recorded rounds: the replay integrity
            # checks must reject the entry, forget it, and re-run cold
            # — a bad store costs time, never answers.
            tamper(entry)
            fresh = AnalysisSession(store=store)
            client2, _ = _typestate(fresh)
            certs = CertificateStore()
            result = fresh.solve(
                client2, queries, CONFIG,
                certificates=certs, source="test:prog",
            )
            assert result.mode == "stale"
            assert fresh.stats["stale_entries"] == 1
            assert len(certs.certificates) == len(queries)
            for query in queries:
                assert result.records[query].status.value in (
                    "proven", "impossible", "exhausted",
                )

    def test_tampered_entry_falls_back_to_cold(self, tmp_path):
        def foreign_group(entry):
            entry["rounds"][0]["queries"] = ["typestate:bogus"]

        self._assert_stale_then_cold(tmp_path, foreign_group)

    @pytest.mark.parametrize(
        "tamper",
        [
            _clause_literal_not_a_pair,
            _seconds_not_a_number,
            _survivors_not_entries,
        ],
    )
    def test_malformed_entry_falls_back_to_cold(self, tmp_path, tamper):
        """A recorded round that does not decode is a mismatch like one
        that fails a check, not an error out of the solve."""
        self._assert_stale_then_cold(tmp_path, tamper)


class TestJournalPrecedence:
    def test_resuming_journal_skips_the_store(self, tmp_path):
        store_path = str(tmp_path / "store.jsonl")
        journal_path = str(tmp_path / "journal.jsonl")
        session = AnalysisSession()
        client, queries = _typestate(session)
        with SearchJournal(journal_path) as journal:
            session.solve(client, queries, CONFIG, journal=journal)
        with KnowledgeStore(store_path) as store:
            warm_session = AnalysisSession(store=store)
            client2, _ = _typestate(warm_session)
            with SearchJournal(journal_path, resume=True) as journal:
                result = warm_session.solve(
                    client2, queries, CONFIG,
                    journal=journal, source="test:prog",
                )
            # The resumed journal takes precedence: no store lookup,
            # no re-recording of replayed knowledge.
            assert result.mode == "cold"
            assert store.hits == 0 and store.misses == 0
            assert len(store) == 0


class TestSessionMemos:
    def test_prepare_is_memoized_per_name(self):
        session = AnalysisSession()
        assert session.prepare("tsp") is session.prepare("tsp")
        assert session.stats["programs_prepared"] == 1

    def test_seed_and_instance_round_trip(self):
        session = AnalysisSession()
        bench = session.prepare("tsp")
        token = session.seed(bench)
        assert session.instance("tsp", token) is bench
        # A token the session never saw falls back to the standard
        # memo for suite benchmarks.
        assert session.instance("tsp", token + 999) is bench

    def test_client_builders_are_memoized_by_text(self):
        session = AnalysisSession()
        first = session.typestate_client(TYPESTATE_TEXT)
        second = session.typestate_client(TYPESTATE_TEXT)
        assert first[0] is second[0]
        third = session.typestate_client(TYPESTATE_TEXT + "z = new Sock\n")
        assert third[0] is not first[0]


class TestStoreKeyMemo:
    """A client's store key is computed once per client object and dies
    with the client."""

    KEYS = (("tsp", "typestate"), ("tsp", "escape"), ("elevator", "typestate"))

    def test_program_is_rendered_once_per_client(self, tmp_path, monkeypatch):
        rendered = []
        real = store_mod.canonical_program_text

        def counting(program):
            rendered.append(program)
            return real(program)

        monkeypatch.setattr(store_mod, "canonical_program_text", counting)
        with KnowledgeStore(str(tmp_path / "store.jsonl")) as store:
            session = AnalysisSession(store=store)
            modes = []
            for _pass in range(2):
                for name, analysis in self.KEYS:
                    out = session.solve_benchmark(name, analysis, CONFIG)
                    modes.extend(result.mode for _i, _q, result in out)
            clients = [
                client
                for name, analysis in self.KEYS
                for client, queries in session.client_setups(
                    session.prepare(name), analysis
                )
                if queries
            ]
        units = len(modes) // 2
        assert modes == ["cold"] * units + ["replay"] * units
        assert len(clients) == units
        assert len(rendered) == units
        digests = set()
        for client in clients:
            info, digest = session._store_keys[client]
            assert info == describe_client(client)
            assert digest == program_digest(client.program, info)
            digests.add(digest)
        assert len(digests) == units

    def test_entry_dies_with_the_client(self, tmp_path):
        with KnowledgeStore(str(tmp_path / "store.jsonl")) as store:
            session = AnalysisSession(store=store)
            # Built outside the session, so nothing resident keeps it.
            client, queries = _typestate(AnalysisSession())
            session.solve(client, queries, CONFIG, source="test:prog")
            assert session.solve(
                client, queries, CONFIG, source="test:prog"
            ).mode == "replay"
            assert len(session._store_keys) == 1
            ref = weakref.ref(client)
            del client
            gc.collect()
            assert ref() is None
            assert len(session._store_keys) == 0


def _tamper_abstraction(rounds) -> bool:
    """Change the decoded abstraction of the last ``ok`` round after
    the first."""
    for rec in reversed(rounds):
        if rec.outcome == "ok" and rec.round > 1:
            rec.p = rec.p ^ {"bogus"}
            return True
    return False


def _drop_survivor_clauses(rounds) -> bool:
    """Empty the decoded clauses of the last survivor that learned
    some."""
    for rec in reversed(rounds):
        for survivor in rec.survivors:
            if survivor.outcome == "clauses" and survivor.added:
                survivor.added = ()
                return True
    return False


def _tamper_recorded_abstraction(entry) -> bool:
    """Change the recorded (JSON) abstraction of the last ``ok`` round
    after the first."""
    for rec in reversed(entry["rounds"]):
        if rec.get("outcome") == "ok" and rec["round"] > 1:
            recorded = set(rec["abstraction"])
            rec["abstraction"] = sorted(recorded ^ {"bogus"})
            return True
    return False


def _zero_annotation_digest(entry) -> bool:
    """Set one recorded annotation digest to 64 zeros: an edit no
    replay check can see, since a replay re-runs no fixpoint."""
    for result in entry["results"].values():
        if result.get("annotation_digest"):
            result["annotation_digest"] = "0" * 64
            return True
    return False


class TestTamperAfterWarm:
    """A tampered entry is caught by the per-round checks even when a
    good replay of the same entry has already filled every memo.

    After its first replay an entry's rounds are read decoded, so the
    decoded rounds are what a later read checks, and what these tests
    tamper with; an edit of the file fails the entry's checksum when a
    fresh handle loads it."""

    NAME, ANALYSIS = "tsp", "escape"

    def _solve(self, session):
        return [
            (result.mode, {
                str(q): (r.status.value, r.iterations, r.abstraction)
                for q, r in result.records.items()
            })
            for _i, _q, result in session.solve_benchmark(
                self.NAME, self.ANALYSIS, CONFIG
            )
        ]

    @pytest.mark.parametrize(
        "tamper", [_tamper_abstraction, _drop_survivor_clauses]
    )
    def test_tampered_entry_goes_stale_in_a_warm_session(
        self, tmp_path, tamper
    ):
        ((_mode, oracle),) = self._solve(AnalysisSession())
        with KnowledgeStore(str(tmp_path / "store.jsonl")) as store:
            session = AnalysisSession(store=store)
            assert [m for m, _v in self._solve(session)] == ["cold"]
            assert self._solve(session) == [("replay", oracle)]
            ((client, queries),) = session.client_setups(
                session.prepare(self.NAME), self.ANALYSIS
            )
            key = (
                session._store_keys[client][1],
                config_key(CONFIG),
                [str(q) for q in queries],
            )
            entry = store.lookup(*key)
            rounds = store.recorded_rounds(entry)
            assert rounds and all(rec.decoded for rec in rounds)
            assert tamper(rounds)
            assert self._solve(session) == [("stale", oracle)]
            assert session.stats["stale_entries"] == 1
            # The tampered entry is forgotten with its decoded rounds;
            # the cold re-run recorded a good one, which the next read
            # replays.
            assert store.lookup(*key) is not entry
            assert store.recorded_rounds(entry) is not rounds
            assert self._solve(session) == [("replay", oracle)]

    def _edited_store(self, tmp_path, edit) -> str:
        """A store holding one replayable entry, then edited on disk
        with its recorded checksum kept."""
        ((_mode, oracle),) = self._solve(AnalysisSession())
        path = str(tmp_path / "store.jsonl")
        with KnowledgeStore(path) as store:
            session = AnalysisSession(store=store)
            assert [m for m, _v in self._solve(session)] == ["cold"]
            assert self._solve(session) == [("replay", oracle)]
        with open(path) as handle:
            header, line = handle.read().splitlines()
        entry = json.loads(line)
        assert edit(entry)
        with open(path, "w") as handle:
            handle.write(header + "\n" + json.dumps(entry) + "\n")
        return path

    def test_file_edit_is_caught_by_a_fresh_handle(self, tmp_path):
        path = self._edited_store(tmp_path, _tamper_recorded_abstraction)
        problems, _summary = store_mod.verify_store(path)
        assert any("checksum mismatch" in p for p in problems)
        with pytest.raises(LogCorruption, match="fails its checksum"):
            KnowledgeStore(path)

    def test_zeroed_annotation_digest_is_caught_on_load(self, tmp_path):
        path = self._edited_store(tmp_path, _zero_annotation_digest)
        with pytest.raises(LogCorruption, match="fails its checksum"):
            KnowledgeStore(path)


class TestReplayReadCost:
    """A replay read of an entry already replayed in this process costs
    its checks: its rounds are read decoded, each query object is
    hashed at most twice (to build its record and to read it), and no
    certificate evidence is built unless certificates are collected."""

    KEYS = (("tsp", "typestate"), ("tsp", "escape"))

    def _read(self, session):
        for name, analysis in self.KEYS:
            response, tiers = solve_request(
                session,
                CONFIG,
                {"op": "solve-bench", "benchmark": name, "analysis": analysis},
            )
            assert response["ok"]
            yield tiers

    def test_second_replay_decodes_nothing(self, tmp_path, monkeypatch):
        with KnowledgeStore(str(tmp_path / "store.jsonl")) as store:
            session = AnalysisSession(store=store)
            assert all("cold" in tiers for tiers in self._read(session))
            decoded = []
            real = journal_mod.clause_from_jsonable

            def counting(items):
                decoded.append(items)
                return real(items)

            monkeypatch.setattr(journal_mod, "clause_from_jsonable", counting)
            assert all("replay" in tiers for tiers in self._read(session))
            assert decoded  # the first replay decodes the entry...
            del decoded[:]
            assert all("replay" in tiers for tiers in self._read(session))
            assert decoded == []  # ...and the second reads it decoded

    def test_each_query_is_hashed_at_most_twice(self, tmp_path, monkeypatch):
        with KnowledgeStore(str(tmp_path / "store.jsonl")) as store:
            session = AnalysisSession(store=store)
            for _pass in range(2):
                list(self._read(session))
            hashes = collections.Counter()
            for cls in (TypestateQuery, EscapeQuery):
                real = cls.__hash__

                def counting(query, real=real):
                    hashes[id(query)] += 1
                    return real(query)

                monkeypatch.setattr(cls, "__hash__", counting)
            assert all("replay" in tiers for tiers in self._read(session))
            queries = [
                query
                for name, analysis in self.KEYS
                for _client, unit in session.client_setups(
                    session.prepare(name), analysis
                )
                for query in unit
            ]
        assert len(queries) > 10
        assert set(hashes) == {id(query) for query in queries}
        assert max(hashes.values()) <= 2

    def test_evidence_only_with_certificates(self, tmp_path, monkeypatch):
        built = []

        class CountingEvidence(QueryEvidence):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(tracer_mod, "QueryEvidence", CountingEvidence)
        with KnowledgeStore(str(tmp_path / "store.jsonl")) as store:
            session = AnalysisSession(store=store)
            client, queries = _typestate(session)
            session.solve(client, queries, CONFIG, source="test:prog")
            del built[:]
            result = session.solve(client, queries, CONFIG, source="test:prog")
            assert result.mode == "replay"
            assert built == []
            certs = CertificateStore()
            result = session.solve(
                client, queries, CONFIG,
                certificates=certs, source="test:prog",
            )
            assert result.mode == "replay"
            assert len(built) == len(queries) == len(certs.certificates)
