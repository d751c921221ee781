"""Sibling type-state clients share one compiled semantics.

The bench harness builds the clients of one program's tracked sites as
one :meth:`TypestateClient.family`: one CFG, one binding (theory and
cube universe), one compiled-command store and one backward wp memo,
all keyed by ``TypestateSemantics.table_key``.  Two properties make
that sound, and both are pinned here on the four small benchmarks
through the inlined and the interprocedural setups:

* the key contract: siblings with equal keys for a command build equal
  tables, and ``New`` of a tracked site and event calls get keys that
  tell apart the siblings whose tables differ;
* no result moves: family-built clients find exactly what clients
  built one at a time through ``TypestateClient(...)`` find, records
  and certificates alike.
"""

from itertools import combinations

import pytest

from repro.bench import harness
from repro.bench.parallel import RunOptions
from repro.core.tracer import TracerConfig
from repro.lang.ast import CallProc, Invoke, New
from repro.typestate.client import TypestateClient

BENCHMARKS = ("tsp", "elevator", "hedc", "weblech")
SETUPS = ("typestate", "typestate-interproc")
CONFIG = TracerConfig(k=5, max_iterations=30)


@pytest.fixture(scope="module", params=BENCHMARKS)
def bench(request):
    return harness.prepare(request.param)


def _graph(client):
    """The client's CFG, or its procedure graph in interproc mode."""
    return client.cfg if client.cfg is not None else client.engine.graph


def _commands(client):
    """Every atomic command of the client's program, once each."""
    graph = _graph(client)
    cfgs = [graph] if client.cfg is not None else graph.procedures.values()
    return list(
        dict.fromkeys(
            edge.command
            for cfg in cfgs
            for edge in cfg.edges
            if edge.command is not None and not isinstance(edge.command, CallProc)
        )
    )


def _standalone(client):
    """The client the family member replaces, built on its own."""
    analysis = client.analysis
    return TypestateClient(
        client.program,
        analysis.automaton,
        analysis.tracked_site,
        analysis.param_space.universe,
        analysis.may_point,
        analysis.event_labels,
    )


@pytest.mark.parametrize("analysis", SETUPS)
def test_equal_keys_mean_equal_tables(bench, analysis):
    setups = harness.analysis_setups(bench, analysis)
    semantics = [client.analysis.semantics for client, _queries in setups]
    split = {New: 0, Invoke: 0}
    for command in _commands(setups[0][0]):
        rows = [(s.table_key(command), repr(s.table_for(command))) for s in semantics]
        for (key_a, table_a), (key_b, table_b) in combinations(rows, 2):
            if key_a == key_b:
                assert table_a == table_b, command
            elif table_a != table_b and type(command) in split:
                split[type(command)] += 1
    if len(setups) > 1:
        # The flags in the key are exercised: some sibling pairs build
        # different tables for an allocation and for a call.
        assert split[New] and split[Invoke], split


def _solve(bench, analysis, setups, monkeypatch):
    """Serial certified evaluation of ``setups`` through the harness."""
    with monkeypatch.context() as patch:
        patch.setattr(harness, "analysis_setups", lambda _bench, _analysis: setups)
        result = harness.evaluate_benchmark(
            bench, analysis, CONFIG, options=RunOptions(certify=True)
        )
    records = [
        (
            r.query_id,
            r.status,
            r.abstraction_cost,
            r.abstraction,
            r.iterations,
            r.max_disjuncts,
        )
        for r in result.records
    ]
    return records, result.certificates


@pytest.mark.parametrize("analysis", SETUPS)
def test_family_matches_standalone_clients(bench, analysis, monkeypatch):
    family = harness.analysis_setups(bench, analysis)
    alone = [(_standalone(client), queries) for client, queries in family]
    first = family[0][0]
    for client, _queries in family:
        assert _graph(client) is _graph(first)
        assert client.meta.theory is first.meta.theory
        assert client.analysis.semantics.compiled_store is (
            first.analysis.semantics.compiled_store
        )
    for (member, _queries), (single, _same) in zip(family, alone):
        # A procedure graph is the program itself, shared either way.
        if member.cfg is not None:
            assert single.cfg is not member.cfg
        assert single.meta.theory is not member.meta.theory
        assert single.analysis.semantics.compiled_store is not (
            member.analysis.semantics.compiled_store
        )
    records, certificates = _solve(bench, analysis, family, monkeypatch)
    assert records
    assert (records, certificates) == _solve(bench, analysis, alone, monkeypatch)
