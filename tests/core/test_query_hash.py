"""Queries hash once per object and process, and never pickle the hash.

Queries key the search's dicts and a daemon's replay reads, so
:func:`~repro.core.tracer.hash_once` keeps each query's hash beside
it.  The value must be the frozen dataclass's own hash, and it must
not travel in a pickle: string hashes differ between processes with
different hash seeds.
"""

import os
import pickle
import subprocess
import sys
from dataclasses import astuple, replace

import pytest

import repro
from repro.escape import EscapeQuery
from repro.provenance import ProvenanceQuery
from repro.typestate import TypestateQuery

QUERIES = [
    TypestateQuery("q", frozenset({"closed"})),
    EscapeQuery("q", "x"),
    ProvenanceQuery("q", "x", frozenset({"h1"})),
]

IDS = [type(query).__name__ for query in QUERIES]


class CountingStr(str):
    """A ``str`` that counts its hash computations."""

    calls = 0

    def __hash__(self):
        CountingStr.calls += 1
        return str.__hash__(self)


@pytest.mark.parametrize("query", QUERIES, ids=IDS)
def test_equality_and_hash(query):
    twin = replace(query)
    assert twin == query and twin is not query
    assert hash(twin) == hash(query) == hash(astuple(query))
    assert {query: 1}[twin] == 1
    other = replace(query, label="other")
    assert other != query
    assert hash(other) == hash(astuple(other))
    assert repr(query) == repr(twin)
    assert "_hash" not in repr(query)


@pytest.mark.parametrize("query", QUERIES, ids=IDS)
def test_hash_is_computed_once(query):
    CountingStr.calls = 0
    counted = replace(query, label=CountingStr(query.label))
    for _ in range(3):
        hash(counted)
    assert {counted: 1}[counted] == 1
    assert CountingStr.calls == 1


@pytest.mark.parametrize("query", QUERIES, ids=IDS)
def test_pickle_round_trip_drops_the_hash(query):
    hash(query)
    payload = pickle.dumps(query)
    assert b"_hash" not in payload
    copy = pickle.loads(payload)
    assert copy == query and hash(copy) == hash(query)


def test_unpickled_query_hashes_under_its_own_hash_seed():
    """A query pickled here, after hashing it, hashes in a process of
    another hash seed exactly as a query built there does."""
    for query in QUERIES:
        hash(query)
    seed = "7" if os.environ.get("PYTHONHASHSEED") != "7" else "8"
    script = (
        "import pickle, sys\n"
        "from dataclasses import astuple\n"
        "queries = pickle.loads(sys.stdin.buffer.read())\n"
        "print(all(hash(q) == hash(astuple(q)) for q in queries))\n"
    )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps(QUERIES),
        capture_output=True,
        env=env,
        check=True,
        timeout=60,
    )
    assert done.stdout.strip() == b"True"
