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

The weakest preconditions themselves are derived on masks, and only
for the literals a command writes
(:meth:`~repro.core.semantics.CompiledCommand.wp_masks`).
:func:`reference_wp` derives them at the formula level instead: the
guard-by-guard disjunction through ``to_dnf``, ``simplify`` and
``merge_cubes``, back to a formula, for every primitive.  The fold
uses it, and :func:`check_lowering` checks every literal a wp memo
lowered against it.

``scripts/backward_oracle.py`` runs :func:`check_eval` over the whole
suite.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.bench.harness import evaluate_benchmark, prepare
from repro.core import tracer as tracer_module
from repro.core.formula import (
    Formula,
    Lit,
    Literal,
    conj,
    disj,
    mask_bits,
    merge_cubes,
    neg,
    simplify,
    to_dnf,
    wp_substitute,
)
from repro.core.meta import MAX_CUBES, MetaResult, approx, backward_trace
from repro.core.semantics import CompiledCommand
from repro.core.tracer import TracerConfig
from repro.escape import (
    ESC,
    LOC,
    NIL,
    EscSchema,
    EscapeClient,
    EscapeQuery,
    FieldIs,
    SiteIs,
    VarIs,
)
from repro.lang.ast import Invoke, atoms_of
from repro.provenance import ProvenanceClient, PtHas, PtParam, PtSchema, PtTop
from repro.typestate import (
    TsErr,
    TsParam,
    TsType,
    TsVar,
    TypestateClient,
    TypestateQuery,
    file_automaton,
)
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


def reference_wp(compiled: CompiledCommand, prim) -> Formula:
    """``wp(prim)`` of ``compiled``'s table, derived at the formula
    level: ``\\/_i (g_i & pre_i)`` over the cases, or ``prim | \\/
    (g_i & pre_i)`` over the non-trivial ones when every case preserves
    ``prim``, converted with ``to_dnf``, ``simplify`` and
    ``merge_cubes`` and turned back into a formula."""
    binding = compiled.binding
    theory = binding.theory
    identity = Lit(Literal(prim, True))
    location = binding.location_of(prim)
    if location is None:
        return identity
    value = binding.prim_value(prim)
    rows = []
    written = False
    for case in compiled.cases:
        expr = case.effect.value_expr_at(location, binding)
        if expr is None:
            rows.append((case.guard, identity, True))
            continue
        written = True
        rows.append(
            (
                case.guard,
                expr.precondition(value, binding),
                expr.preserves(location, value, binding),
            )
        )
    if not written:
        return identity
    if all(preserving for _, _, preserving in rows):
        raw = disj(
            identity,
            *(conj(guard, pre) for guard, pre, _ in rows if pre != identity),
        )
    else:
        raw = disj(*(conj(guard, pre) for guard, pre, _ in rows))
    return merge_cubes(simplify(to_dnf(raw, theory), theory), theory).to_formula()


class ReferenceWps:
    """:func:`reference_wp` of each (compiled table, primitive), derived
    once.  A meta with no compiled table (a hand-written one) keeps its
    own ``wp_primitive``."""

    def __init__(self):
        self._memo: Dict[Tuple[int, object], Tuple[CompiledCommand, Formula]] = {}

    def of(self, compiled: CompiledCommand, prim) -> Formula:
        key = (id(compiled), prim)
        known = self._memo.get(key)
        if known is None:
            # The entry keeps ``compiled`` alive, so its id stays unique.
            known = self._memo[key] = (compiled, reference_wp(compiled, prim))
        return known[1]

    def wp(self, meta, command, prim) -> Formula:
        compiled = meta.compiled(command)
        if compiled is None:
            return meta.wp_primitive(command, prim)
        return self.of(compiled, prim)


def reference_backward(
    meta, analysis, trace, p, d_init, post, k, wps: Optional[ReferenceWps] = None
) -> MetaResult:
    """``B[t](p, d_init, post)`` folded step by step on :class:`Dnf`
    values: ``approx(p, d, toDNF(wp(a, f)))`` at every command, with
    the weakest preconditions of :func:`reference_wp` and the forward
    states replayed from ``d_init``."""
    if wps is None:
        wps = ReferenceWps()
    theory = meta.theory
    states = analysis.trace_states(tuple(trace), p, d_init)
    stats = {"subsumption_drops": 0, "beam_prunes": 0}
    current = approx(to_dnf(post, theory), theory, p, states[-1], k, stats)
    conditions = [current]
    for index in range(len(trace) - 1, -1, -1):
        command = trace[index]
        pre = wp_substitute(current, lambda prim: wps.wp(meta, command, prim))
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


def check_lowering(meta, wps: Optional[ReferenceWps] = None) -> int:
    """Check every literal ``meta``'s wp memo lowered from a compiled
    table against :func:`reference_wp`: a literal the memo keeps as
    changed must have the masks and the peak ``universe.dnf`` gives for
    the reference ``wp`` (or its negation), and any other literal's
    reference must lower to the literal itself.  Returns the number of
    (table key, literal) pairs checked; raises
    :class:`BackwardMismatch` on the first that disagrees."""
    if wps is None:
        wps = ReferenceWps()
    cache = meta._wp_cache
    if cache is None:
        return 0
    universe = meta.theory.universe()
    checked = 0
    for key in list(cache):
        record = cache.get(key)
        if record.compiled is None:
            continue
        for bit in mask_bits(record.lowered):
            literal = universe.literals[bit]
            formula = wps.of(record.compiled, literal.prim)
            want, want_peak = universe.dnf(
                formula if literal.positive else neg(formula)
            )
            if record.changed >> bit & 1:
                got, got_peak = record.factors[bit]
                agrees = set(got) == set(want) and got_peak == want_peak
            else:
                agrees = len(want) == 1 and (1 << bit) in want
                got, got_peak = {1 << bit: None}, None
            if not agrees:
                raise BackwardMismatch(
                    f"lowering of {literal} under {key!r}: "
                    f"the wp memo has {sorted(got)} (peak {got_peak}), "
                    f"the reference {sorted(want)} (peak {want_peak})"
                )
            checked += 1
    return checked


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
    against :func:`reference_backward`, and, when the block ends, every
    literal those passes lowered (:func:`check_lowering`).  Yields a
    two-element list counting the passes and the lowered literals
    checked; raises :class:`BackwardMismatch` from the first pass or
    literal that disagrees (inside the block the tracer re-raises it
    under ``strict``, which :data:`CONFIG` sets)."""
    original = tracer_module.backward_trace
    checked = [0, 0]
    wps = ReferenceWps()
    #: One meta per wp memo the passes used (siblings share one).
    metas = {}

    def checking(meta, analysis, trace, p, d_init, post, k=5, max_cubes=MAX_CUBES):
        got = original(meta, analysis, trace, p, d_init, post, k=k, max_cubes=max_cubes)
        want = reference_backward(meta, analysis, trace, p, d_init, post, k, wps)
        problem = mismatch(got, want)
        if problem is not None:
            raise BackwardMismatch(
                f"pass {checked[0]} (k={k}, {len(trace)} steps, p={sorted(p)}): {problem}"
            )
        checked[0] += 1
        metas.setdefault(id(meta._wp_cache), meta)
        return got

    tracer_module.backward_trace = checking
    try:
        yield checked
    finally:
        tracer_module.backward_trace = original
    for meta in metas.values():
        checked[1] += check_lowering(meta, wps)


def check_eval(names, report=None) -> Tuple[int, int]:
    """Run the serial eval of ``names`` with every backward pass and
    every lowered literal checked; returns the number of passes and of
    (table key, literal) pairs.  ``report(name, analysis, passes,
    lowered, result)`` is called after each unit with its
    ``EvalResult``."""
    passes = lowered = 0
    for name in names:
        bench = prepare(name)
        for analysis in ANALYSES:
            with checked_passes() as checked:
                result = evaluate_benchmark(bench, analysis, CONFIG)
            passes += checked[0]
            lowered += checked[1]
            if report is not None:
                report(name, analysis, checked[0], checked[1], result)
    return passes, lowered


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


# -- the lowering, command by command ----------------------------------------


def _typestate_primitives():
    yield TsErr()
    for var in VARS:
        yield TsParam(var)
        yield TsVar(var)
    for state in sorted(file_automaton().states):
        yield TsType(state)


def _escape_primitives():
    for site in SITES:
        for value in (LOC, ESC):
            yield SiteIs(site, value)
    for var in VARS:
        for value in (LOC, ESC, NIL):
            yield VarIs(var, value)
    for field in FIELDS:
        for value in (LOC, ESC, NIL):
            yield FieldIs(field, value)


def _provenance_primitives():
    for site in SITES:
        yield PtParam(site)
    for var in VARS:
        yield PtTop(var)
        for site in SITES:
            yield PtHas(var, site)


#: analysis -> (client of a program, the primitives over its universes)
RANDOM_CLIENTS = {
    "typestate": (
        lambda program: TypestateClient(program, file_automaton(), "h1", frozenset(VARS)),
        _typestate_primitives,
    ),
    "escape": (
        lambda program: EscapeClient(program, EscSchema(VARS, FIELDS), frozenset(SITES)),
        _escape_primitives,
    ),
    "provenance": (
        lambda program: ProvenanceClient(program, PtSchema(VARS), frozenset(SITES)),
        _provenance_primitives,
    ),
}


def _random_clients(analysis):
    """``(client, its program's commands, primitives)`` per seed."""
    make, primitives = RANDOM_CLIENTS[analysis]
    for seed in range(SEEDS):
        program = random_typestate_program(random.Random(6100 + seed), length=10)
        commands = list(dict.fromkeys(atoms_of(program)))
        yield make(program), commands, tuple(primitives())


@pytest.mark.parametrize("analysis", sorted(RANDOM_CLIENTS))
def test_random_lifted_wp_matches_reference(analysis):
    """For every command and primitive of random programs, the lifted
    derived wp is the formula-level reference, and a primitive whose
    location the command never writes has the primitive itself as its
    reference.  Every literal the wp memo lowers from them agrees with
    the reference too."""
    unwritten = written = 0
    for client, commands, primitives in _random_clients(analysis):
        semantics = client.analysis.semantics
        universe = client.meta.theory.universe()
        literals = 0
        for prim in primitives:
            for positive in (True, False):
                literals |= 1 << universe.bit_of(Literal(prim, positive))
        for command in commands:
            compiled = semantics.compiled(command)
            for prim in primitives:
                want = reference_wp(compiled, prim)
                assert semantics.wp_primitive(command, prim) == want, (command, prim)
                location = compiled.binding.location_of(prim)
                if location is None or not compiled.writes(location):
                    assert want == Lit(Literal(prim, True)), (command, prim)
                    unwritten += 1
                else:
                    written += 1
            client.meta.wp_factors(command, literals, None)
        assert check_lowering(client.meta) == len(commands) * 2 * len(primitives)
    assert unwritten and written


def test_guard_dnfs_follow_the_universe_epoch():
    """A command's lowered guards carry the Info of the universe epoch
    they are used in: interning a literal related to a guard literal
    (a new ``var`` entails ``!err``) moves the epoch, and the guards are
    lowered again."""
    program = random_typestate_program(random.Random(7100))
    client = TypestateClient(program, file_automaton(), "h1", frozenset(VARS))
    universe = client.meta.theory.universe()
    compiled = client.analysis.semantics.compiled(Invoke("x", "open"))
    compiled.wp_masks(TsErr())
    epoch = universe.epoch
    universe.bit_of(Literal(TsVar("fresh"), True))
    assert universe.epoch != epoch
    compiled.wp_masks(TsVar("fresh"))
    for case, lowered in zip(compiled.cases, compiled._guard_dnfs(universe)):
        assert lowered == universe.dnf(case.guard)[0], case


def test_no_derivation_for_unwritten_literals(monkeypatch):
    """The backward passes derive a literal's wp only where its command
    writes the literal's location, once per table and primitive; every
    other literal is lowered to itself without a derivation."""
    calls = []
    real = CompiledCommand.wp_masks

    def spy(compiled, prim):
        calls.append((compiled, prim))
        return real(compiled, prim)

    monkeypatch.setattr(CompiledCommand, "wp_masks", spy)
    schema = EscSchema(VARS, FIELDS)
    queries = [EscapeQuery("q", var) for var in VARS]
    unwritten = 0
    for seed in range(SEEDS):
        program = random_escape_program(random.Random(5100 + seed), length=8)
        client = EscapeClient(program, schema, frozenset(SITES))
        for p in _subsets(SITES):
            for query, trace in _failing(client, queries, p):
                backward_trace(
                    client.meta,
                    client.analysis,
                    trace,
                    p,
                    client.analysis.initial_state(),
                    client.fail_condition(query),
                )
        universe = client.meta.theory.universe()
        cache = client.meta._wp_cache
        records = [] if cache is None else [cache.get(key) for key in list(cache)]
        for record in records:
            compiled = record.compiled
            for bit in mask_bits(record.lowered):
                location = compiled.binding.location_of(universe.literals[bit].prim)
                if location is None or not compiled.writes(location):
                    unwritten += 1
        derived = sum(len(record.derived) for record in records)
        assert len(calls) == derived
        for compiled, prim in calls:
            location = compiled.binding.location_of(prim)
            assert location is not None and compiled.writes(location), prim
        calls.clear()
    assert unwritten


SMALL = ("tsp", "elevator", "hedc", "weblech")


@pytest.fixture(scope="module")
def small_suite():
    """``((passes, lowered literals), (EvalResult, wp derivations) by
    (benchmark, analysis))`` of the serial eval of the four small
    benchmarks, every backward pass and lowered literal checked."""
    results = {}
    derived = [0]
    real = CompiledCommand.wp_masks

    def counting(compiled, prim):
        derived[0] += 1
        return real(compiled, prim)

    def keep(name, analysis, _passes, _lowered, result):
        results[(name, analysis)] = (result, derived[0])
        derived[0] = 0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompiledCommand, "wp_masks", counting)
        totals = check_eval(SMALL, keep)
    return totals, results


def test_small_suite_passes_match_reference(small_suite):
    """Every backward pass of the serial eval of the four small
    benchmarks agrees with the reference fold, and every literal its
    wp memos lowered with the reference derivation."""
    (passes, lowered), _results = small_suite
    assert (passes, lowered) == (138, SMALL_LOWERED)


#: (table key, literal) pairs the wp memos of the small-suite eval
#: lower, the same at hash seeds 0 and 1.
SMALL_LOWERED = 11311

#: wp-memo (hits, misses) per unit of the serial small-suite eval; the
#: same at hash seeds 0 and 1.  Every lowered literal of every step's
#: condition counts a hit, no-op steps included.
WP_MEMO_COUNTS = {
    ("tsp", "escape"): (1638, 1823),
    ("hedc", "escape"): (22628, 3104),
    ("weblech", "typestate"): (3455, 671),
    ("weblech", "escape"): (11527, 3642),
}

#: wp derivations (:meth:`CompiledCommand.wp_masks` calls) per unit,
#: the same at hash seeds 0 and 1: one per table key and primitive the
#: command writes, whichever of its literals the passes meet first.
WP_DERIVATIONS = {
    ("tsp", "escape"): 142,
    ("hedc", "escape"): 265,
    ("weblech", "typestate"): 27,
    ("weblech", "escape"): 391,
}


@pytest.mark.parametrize("unit", sorted(WP_MEMO_COUNTS), ids="-".join)
def test_wp_memo_counts_pinned(small_suite, unit):
    _totals, results = small_suite
    counters = results[unit][0].wp_cache
    assert (counters.hits, counters.misses) == WP_MEMO_COUNTS[unit]


@pytest.mark.parametrize("unit", sorted(WP_DERIVATIONS), ids="-".join)
def test_wp_derivations_pinned(small_suite, unit):
    _totals, results = small_suite
    assert results[unit][1] == WP_DERIVATIONS[unit]
