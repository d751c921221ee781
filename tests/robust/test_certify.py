"""Verdict certificates: emission, independent checking, and rejection
of tampered or malformed certificate files."""

import json

import pytest

from repro.core import Tracer, TracerConfig
from repro.core.stats import QueryStatus
from repro.lang import parse_program
from repro.robust.certify import (
    CERTIFICATE_VERSION,
    CertificateStore,
    check_certificate,
    load_certificates,
    write_certificates,
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


def _certify(queries):
    store = CertificateStore()
    Tracer(
        _client(), TracerConfig(k=5, max_iterations=30), certificates=store
    ).solve_all(queries)
    return store


class TestEmission:
    def test_one_certificate_per_query(self):
        store = _certify([Q_PROVEN, Q_IMPOSSIBLE])
        by_query = store.by_query()
        assert set(by_query) == {str(Q_PROVEN), str(Q_IMPOSSIBLE)}
        assert by_query[str(Q_PROVEN)]["verdict"] == "proven"
        assert by_query[str(Q_IMPOSSIBLE)]["verdict"] == "impossible"

    def test_proven_certificate_carries_the_evidence(self):
        cert = _certify([Q_PROVEN]).by_query()[str(Q_PROVEN)]
        assert cert["version"] == CERTIFICATE_VERSION
        assert cert["abstraction"] == ["x", "y"]
        assert cert["abstraction_cost"] == 2
        assert cert["annotation_digest"]
        assert cert["clauses"]  # the accumulated viability clauses
        assert cert["witnesses"]  # the counterexample traces behind them

    def test_impossible_certificate_carries_witnesses(self):
        cert = _certify([Q_IMPOSSIBLE]).by_query()[str(Q_IMPOSSIBLE)]
        assert cert["abstraction"] is None
        assert cert["witnesses"]
        for witness in cert["witnesses"]:
            assert witness["trace"]
            assert witness["clauses"]

    def test_certificates_are_json_serialisable(self):
        store = _certify([Q_PROVEN, Q_IMPOSSIBLE])
        for cert in store.certificates:
            json.dumps(cert)

    def test_stamp_attaches_client_info(self):
        store = _certify([Q_PROVEN])
        store.stamp({"kind": "test", "detail": 7})
        assert all(
            cert["client"] == {"kind": "test", "detail": 7}
            for cert in store.certificates
        )


class TestChecking:
    def test_uncapped_certificate_replays_uncapped(self, monkeypatch):
        """A certificate recorded with ``"max_cubes": null`` is checked
        with no cube cap in both of its replays, like its solve."""
        import inspect

        from repro.core import selfcheck
        from repro.robust import certify

        store = CertificateStore()
        config = TracerConfig(k=5, max_iterations=30, max_cubes=None)
        Tracer(_client(), config, certificates=store).solve_all(
            [Q_PROVEN, Q_IMPOSSIBLE]
        )
        real = certify.backward_trace
        signature = inspect.signature(real)
        caps = []

        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            caps.append(bound.arguments["max_cubes"])
            return real(*args, **kwargs)

        monkeypatch.setattr(selfcheck, "backward_trace", spy)
        monkeypatch.setattr(certify, "backward_trace", spy)
        queries = {str(Q_PROVEN): Q_PROVEN, str(Q_IMPOSSIBLE): Q_IMPOSSIBLE}
        for name, cert in store.by_query().items():
            assert cert["max_cubes"] is None
            assert check_certificate(_client(), queries[name], cert).ok
        assert caps and all(cap is None for cap in caps)

    def test_genuine_certificates_check_out(self):
        store = _certify([Q_PROVEN, Q_IMPOSSIBLE])
        for query in (Q_PROVEN, Q_IMPOSSIBLE):
            report = check_certificate(
                _client(), query, store.by_query()[str(query)]
            )
            assert report.ok, report.problems

    def test_cheaper_claim_rejected(self):
        cert = dict(_certify([Q_PROVEN]).by_query()[str(Q_PROVEN)])
        cert["abstraction"] = []
        cert["abstraction_cost"] = 0
        report = check_certificate(_client(), Q_PROVEN, cert)
        assert not report.ok
        assert any("clause" in p or "cost" in p for p in report.problems)

    def test_non_minimal_claim_rejected(self):
        """An abstraction that proves the query but is not cheapest in
        the family must fail the fresh MinCostSAT minimality check."""
        cert = dict(_certify([Q_PROVEN]).by_query()[str(Q_PROVEN)])
        cert["clauses"] = []  # forget the learned clauses
        report = check_certificate(_client(), Q_PROVEN, cert)
        assert not report.ok
        assert any("minimum" in p or "cost" in p for p in report.problems)

    def test_wrong_digest_rejected(self):
        cert = dict(_certify([Q_PROVEN]).by_query()[str(Q_PROVEN)])
        cert["annotation_digest"] = "0" * 64
        report = check_certificate(_client(), Q_PROVEN, cert)
        assert not report.ok
        assert any("digest" in p for p in report.problems)

    def test_impossible_with_satisfiable_clauses_rejected(self):
        cert = dict(_certify([Q_IMPOSSIBLE]).by_query()[str(Q_IMPOSSIBLE)])
        cert["clauses"] = cert["clauses"][:1]
        report = check_certificate(_client(), Q_IMPOSSIBLE, cert)
        assert not report.ok

    def test_doctored_witness_trace_rejected(self):
        cert = dict(_certify([Q_IMPOSSIBLE]).by_query()[str(Q_IMPOSSIBLE)])
        witnesses = [dict(w) for w in cert["witnesses"]]
        # Drop the trace's failing suffix: the replayed trace no longer
        # reaches the fail condition, so Theorem 3 checking must object.
        witnesses[0]["trace"] = witnesses[0]["trace"][:1]
        cert["witnesses"] = witnesses
        report = check_certificate(_client(), Q_IMPOSSIBLE, cert)
        assert not report.ok


class TestFileFormat:
    def test_write_then_load_round_trips(self, tmp_path):
        path = str(tmp_path / "certs.jsonl")
        store = _certify([Q_PROVEN, Q_IMPOSSIBLE])
        write_certificates(store.certificates, path)
        loaded = load_certificates(path)
        assert loaded == store.certificates

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValueError):
            load_certificates(str(tmp_path / "nope.jsonl"))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "certs.jsonl"
        path.write_text(
            json.dumps(
                {
                    "type": "certificate_header",
                    "version": CERTIFICATE_VERSION + 1,
                }
            )
            + "\n"
        )
        with pytest.raises(ValueError):
            load_certificates(str(path))

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "certs.jsonl"
        path.write_text(
            json.dumps(
                {"type": "certificate_header", "version": CERTIFICATE_VERSION}
            )
            + "\nnot json\n"
        )
        with pytest.raises(ValueError):
            load_certificates(str(path))
