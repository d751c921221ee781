"""Witness traces carry the forward states along them.

Both forward engines build each witness trace from the witness chain
``(pred_node, pred_state, edge)``, which already holds the state before
every command.  The trace hands those states to the backward pass
instead of having it replay the transfer functions; they must be the
replayed states exactly, and the trace must stay the plain tuple of
commands everywhere else.
"""

import itertools
import pickle
import random

import pytest

from repro.core import Tracer, TracerConfig
from repro.core.stats import QueryStatus
from repro.escape import EscSchema, EscapeClient, EscapeQuery
from repro.robust.journal import trace_to_jsonable
from repro.typestate import TypestateClient, TypestateQuery, file_automaton
from tests.randprog import (
    FIELDS,
    SITES,
    VARS,
    random_escape_program,
    random_typestate_program,
)


def typestate_client(seed):
    program = random_typestate_program(random.Random(seed), length=7)
    return TypestateClient(program, file_automaton(), "h1", frozenset(VARS))


def escape_client(seed):
    program = random_escape_program(random.Random(seed + 1000), length=7)
    return EscapeClient(program, EscSchema(VARS, FIELDS), frozenset(SITES))


def _abstractions(client):
    universe = VARS if isinstance(client, TypestateClient) else SITES
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            yield frozenset(combo)


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
@pytest.mark.parametrize("make", [typestate_client, escape_client])
@pytest.mark.parametrize("seed", range(6))
def test_witness_states_equal_replay(make, seed, engine):
    client = make(seed)
    if client.use_engine(engine) != engine:
        pytest.skip("client has no compiled kernel")
    d_init = client.analysis.initial_state()
    witnesses = 0
    for p in _abstractions(client):
        result = client.run_forward(p)
        reference = result if engine == "interpreted" else result.materialize()
        for node, table in reference.states.items():
            for state in table:
                trace = result.trace_to(node, state)
                replayed = client.analysis.trace_states(tuple(trace), p, d_init)
                assert trace.states == replayed, (node, state)
                assert trace.states[-1] == state
                witnesses += 1
    assert witnesses > 0


def test_witness_trace_is_the_plain_tuple():
    client = typestate_client(3)
    result = client.run_forward(frozenset())
    node = client.cfg.exit
    for state in result.states_at(node):
        trace = result.trace_to(node, state)
        plain = tuple(trace)
        assert trace == plain and plain == trace
        assert hash(trace) == hash(plain)
        assert repr(trace) == repr(plain)
        assert trace_to_jsonable(trace) == trace_to_jsonable(plain)
        again = pickle.loads(pickle.dumps(trace))
        assert again == plain and again.states == trace.states


class _BareTraces:
    """A client override of ``counterexamples`` returning bare tuples:
    the backward pass then replays the forward states."""

    def counterexamples(self, queries, p, cache=None):
        witnesses = super().counterexamples(queries, p, cache=cache)
        return {
            query: None if trace is None else tuple(trace)
            for query, trace in witnesses.items()
        }


class BareTypestateClient(_BareTraces, TypestateClient):
    pass


class BareEscapeClient(_BareTraces, EscapeClient):
    pass


def _outcome(record):
    return (
        record.status,
        record.abstraction,
        record.iterations,
        record.max_disjuncts,
    )


def _solve_both(make_witness, make_bare, queries, config):
    got = Tracer(make_bare(), config).solve_all(queries)
    want = Tracer(make_witness(), config).solve_all(queries)
    assert [_outcome(got[q]) for q in queries] == [_outcome(want[q]) for q in queries]
    # Each round but a proving one ran a backward pass.
    return sum(
        got[q].iterations - (got[q].status is QueryStatus.PROVEN) for q in queries
    )


def test_bare_tuple_client_solves_identically():
    config = TracerConfig(k=2, max_iterations=60)
    automaton = file_automaton()
    variables = frozenset(VARS)
    schema = EscSchema(VARS, FIELDS)
    typestate_queries = [
        TypestateQuery("q", frozenset({"closed"})),
        TypestateQuery("q", frozenset({"opened"})),
    ]
    escape_queries = [EscapeQuery("q", var) for var in VARS]
    refinements = 0
    for seed in range(8):
        program = random_typestate_program(random.Random(300 + seed), length=8)
        refinements += _solve_both(
            lambda: TypestateClient(program, automaton, "h1", variables),
            lambda: BareTypestateClient(program, automaton, "h1", variables),
            typestate_queries,
            config,
        )
        program = random_escape_program(random.Random(400 + seed), length=8)
        refinements += _solve_both(
            lambda: EscapeClient(program, schema, frozenset(SITES)),
            lambda: BareEscapeClient(program, schema, frozenset(SITES)),
            escape_queries,
            config,
        )
    # The bare tuples really reached backward passes.
    assert refinements > 10
