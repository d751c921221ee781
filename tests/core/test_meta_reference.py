"""The backward pass against a plain Figure 7 reference fold.

:func:`~repro.core.meta.backward_trace` runs on interned bit-mask
cubes, takes its forward states from the witness chain, skips the
steps whose command changes no literal of the condition, and memoises
each command's cube product per input condition.  None of that may
change a result.  :func:`reference_backward` is the fold of Figure 7
written out on :class:`~repro.core.formula.Dnf` values, with none of
those shortcuts: replay the forward states, then at every step
substitute each literal's weakest precondition, convert to DNF and
apply ``approx``.  Every field of every :class:`MetaResult` must agree.

``scripts/backward_oracle.py`` runs :func:`check_eval` over the whole
suite.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from typing import Iterator, List, Optional

import pytest

from repro.bench.harness import evaluate_benchmark, prepare
from repro.core import tracer as tracer_module
from repro.core.formula import to_dnf, wp_substitute
from repro.core.meta import MAX_CUBES, MetaResult, approx, backward_trace
from repro.core.tracer import TracerConfig
from repro.escape import EscSchema, EscapeClient, EscapeQuery
from repro.typestate import TypestateClient, TypestateQuery, file_automaton
from tests.randprog import (
    FIELDS,
    SITES,
    VARS,
    random_escape_program,
    random_typestate_program,
)

#: The solver configuration ``repro eval`` builds.
CONFIG = TracerConfig(k=5, max_iterations=30)
ANALYSES = ("typestate", "escape")
BEAMS = (1, 2, 5, None)
#: Random programs per analysis.
SEEDS = 8


def reference_backward(meta, analysis, trace, p, d_init, post, k) -> MetaResult:
    """``B[t](p, d_init, post)`` folded step by step on :class:`Dnf`
    values: ``approx(p, d, toDNF(wp(a, f)))`` at every command, the
    forward states replayed from ``d_init``."""
    theory = meta.theory
    states = analysis.trace_states(tuple(trace), p, d_init)
    stats = {"subsumption_drops": 0, "beam_prunes": 0}
    current = approx(to_dnf(post, theory), theory, p, states[-1], k, stats)
    conditions = [current]
    for index in range(len(trace) - 1, -1, -1):
        command = trace[index]
        pre = wp_substitute(current, lambda prim: meta.wp_primitive(command, prim))
        current = approx(to_dnf(pre, theory), theory, p, states[index], k, stats)
        conditions.append(current)
    conditions.reverse()
    return MetaResult(
        condition=conditions[0],
        intermediate=tuple(conditions),
        max_disjuncts=max(len(condition.cubes) for condition in conditions),
        subsumption_drops=stats["subsumption_drops"],
        beam_prunes=stats["beam_prunes"],
    )


def mismatch(got: MetaResult, want: MetaResult) -> Optional[str]:
    """The first field on which ``got`` differs from ``want``, described;
    ``None`` when they agree."""
    for field in (
        "condition",
        "intermediate",
        "max_disjuncts",
        "subsumption_drops",
        "beam_prunes",
    ):
        left, right = getattr(got, field), getattr(want, field)
        if left != right:
            if field == "intermediate":
                step = next(
                    index
                    for index, (a, b) in enumerate(itertools.zip_longest(left, right))
                    if a != b
                )
                left, right = left[step], right[step]
                field = f"intermediate[{step}]"
            return f"{field}: backward_trace gave {left}, the reference fold {right}"
    return None


class BackwardMismatch(AssertionError):
    """A backward pass of the tracer disagreed with the reference fold."""


@contextmanager
def checked_passes() -> Iterator[List[int]]:
    """Check every backward pass the tracer runs inside the block
    against :func:`reference_backward`.  Yields a one-element list
    counting the passes checked; raises :class:`BackwardMismatch` from
    the first pass that disagrees (the tracer re-raises it under
    ``strict``, which :data:`CONFIG` sets)."""
    original = tracer_module.backward_trace
    checked = [0]

    def checking(meta, analysis, trace, p, d_init, post, k=5, max_cubes=MAX_CUBES):
        got = original(meta, analysis, trace, p, d_init, post, k=k, max_cubes=max_cubes)
        want = reference_backward(meta, analysis, trace, p, d_init, post, k)
        problem = mismatch(got, want)
        if problem is not None:
            raise BackwardMismatch(
                f"pass {checked[0]} (k={k}, {len(trace)} steps, p={sorted(p)}): {problem}"
            )
        checked[0] += 1
        return got

    tracer_module.backward_trace = checking
    try:
        yield checked
    finally:
        tracer_module.backward_trace = original


def check_eval(names, report=None) -> int:
    """Run the serial eval of ``names`` with every backward pass checked;
    returns the number of passes.  ``report(name, analysis, passes,
    result)`` is called after each unit with its ``EvalResult``."""
    total = 0
    for name in names:
        bench = prepare(name)
        for analysis in ANALYSES:
            with checked_passes() as checked:
                result = evaluate_benchmark(bench, analysis, CONFIG)
            total += checked[0]
            if report is not None:
                report(name, analysis, checked[0], result)
    return total


# -- random programs -----------------------------------------------------------


def _subsets(items):
    for size in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, size))


def _assert_agrees(client, trace, p, query, k):
    post = client.fail_condition(query)
    d_init = client.analysis.initial_state()
    want = reference_backward(client.meta, client.analysis, trace, p, d_init, post, k)
    got = backward_trace(client.meta, client.analysis, trace, p, d_init, post, k=k)
    problem = mismatch(got, want)
    assert problem is None, problem


def _failing(client, queries, p):
    witnesses = client.counterexamples(queries, p)
    return [(query, witnesses[query]) for query in queries if witnesses[query] is not None]


TYPESTATE_QUERIES = [
    TypestateQuery("q", frozenset({"closed"})),
    TypestateQuery("q", frozenset({"opened"})),
]


def test_random_typestate_passes_match_reference():
    passes = 0
    for seed in range(SEEDS):
        program = random_typestate_program(random.Random(4100 + seed), length=8)
        # One client stays warm over every abstraction and beam width,
        # so the memo sees each (command, condition) under many (p, d).
        warm = TypestateClient(program, file_automaton(), "h1", frozenset(VARS))
        for p in _subsets(VARS):
            for k in BEAMS:
                # The second client of a family shares the first's wp
                # memo through ``share_wp_memo``.
                cold, sibling = TypestateClient.family(
                    program,
                    file_automaton(),
                    frozenset(VARS),
                    [("h1", None), ("h1", None)],
                )
                for query, trace in _failing(cold, TYPESTATE_QUERIES, p):
                    _assert_agrees(cold, trace, p, query, k)
                    _assert_agrees(cold, trace, p, query, k)
                    _assert_agrees(sibling, trace, p, query, k)
                    _assert_agrees(warm, trace, p, query, k)
                    passes += 1
    assert passes >= 50


def test_random_escape_passes_match_reference():
    schema = EscSchema(VARS, FIELDS)
    queries = [EscapeQuery("q", var) for var in VARS]
    passes = 0
    for seed in range(SEEDS):
        program = random_escape_program(random.Random(5100 + seed), length=8)
        # Warm over every abstraction and beam width, as above.
        warm = EscapeClient(program, schema, frozenset(SITES))
        for p in _subsets(SITES):
            for k in BEAMS:
                cold = EscapeClient(program, schema, frozenset(SITES))
                for query, trace in _failing(cold, queries, p):
                    _assert_agrees(cold, trace, p, query, k)
                    _assert_agrees(cold, trace, p, query, k)
                    _assert_agrees(warm, trace, p, query, k)
                    passes += 1
    assert passes >= 50


SMALL = ("tsp", "elevator", "hedc", "weblech")


@pytest.fixture(scope="module")
def small_suite():
    """``(passes, EvalResult by (benchmark, analysis))`` of the serial
    eval of the four small benchmarks, every backward pass checked."""
    results = {}

    def keep(name, analysis, _passes, result):
        results[(name, analysis)] = result

    return check_eval(SMALL, keep), results


def test_small_suite_passes_match_reference(small_suite):
    """Every backward pass of the serial eval of the four small
    benchmarks agrees with the reference fold."""
    passes, _results = small_suite
    assert passes == 138


#: wp-memo (hits, misses) per unit of the serial small-suite eval; the
#: same at hash seeds 0 and 1.  Every lowered literal of every step's
#: condition counts a hit, no-op steps included.
WP_MEMO_COUNTS = {
    ("tsp", "escape"): (1638, 1823),
    ("hedc", "escape"): (22628, 3104),
    ("weblech", "typestate"): (3455, 671),
    ("weblech", "escape"): (11527, 3642),
}


@pytest.mark.parametrize("unit", sorted(WP_MEMO_COUNTS), ids="-".join)
def test_wp_memo_counts_pinned(small_suite, unit):
    _passes, results = small_suite
    counters = results[unit].wp_cache
    assert (counters.hits, counters.misses) == WP_MEMO_COUNTS[unit]
