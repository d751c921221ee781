"""Property tests for the client theories' semantic rewrites.

``normalize_cube``, ``lit_entails``, cube subsumption and
``literals_exhaust`` feed every DNF manipulation; each is validated
against brute-force evaluation over small (p, d) universes for all
three client theories.

Cube normalisation is derived once, on interned bit masks, from
``lit_entails`` and the exclusive-value groups.  Hand-written
per-theory normalisers below are the oracle those mask rules are
checked against.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.formula import Literal, cube_entails, evaluate_cube, evaluate_literal
from repro.escape.domain import ESC, EscSchema, LOC, NIL
from repro.escape.meta import EscapeTheory, FieldIs, SiteIs, VarIs
from repro.provenance.domain import PT_TOP, PtSchema
from repro.provenance.meta import ProvenanceTheory, PtHas, PtParam, PtTop
from repro.typestate import TypestateTheory, file_automaton
from repro.typestate.meta import ERR, TsParam, TsType, TsVar

# -- universes ----------------------------------------------------------------

ESC_SCHEMA = EscSchema(["u", "v"], ["f"])
PT_SCHEMA = PtSchema(["x", "y"])
SITES = ("h1", "h2")


def escape_pairs():
    for p_bits in range(4):
        p = frozenset(s for i, s in enumerate(SITES) if p_bits >> i & 1)
        for d in ESC_SCHEMA.all_states():
            yield p, d


def typestate_pairs():
    from tests.core.test_wp_consistency import TS_VARS, subsets, ts_states

    automaton = file_automaton()
    for p in subsets(TS_VARS):
        for d in ts_states(automaton):
            yield p, d


def provenance_pairs():
    values = [PT_TOP, frozenset(), frozenset({"h1"}), frozenset({"h1", "h2"})]
    for p_bits in range(4):
        p = frozenset(s for i, s in enumerate(SITES) if p_bits >> i & 1)
        for vx in values:
            for vy in values:
                yield p, PT_SCHEMA.state({"x": vx, "y": vy})


ESCAPE_LITS = [
    Literal(prim, positive)
    for positive in (True, False)
    for prim in (
        [VarIs(v, o) for v in ("u", "v") for o in (LOC, ESC, NIL)]
        + [FieldIs("f", o) for o in (LOC, ESC, NIL)]
        + [SiteIs(h, o) for h in SITES for o in (LOC, ESC)]
    )
]

TS_LITS = [
    Literal(prim, positive)
    for positive in (True, False)
    for prim in (
        [ERR]
        + [TsVar(v) for v in ("x", "y")]
        + [TsParam(v) for v in ("x", "y")]
        + [TsType(s) for s in ("closed", "opened")]
    )
]

PT_LITS = [
    Literal(prim, positive)
    for positive in (True, False)
    for prim in (
        [PtTop(v) for v in ("x", "y")]
        + [PtHas(v, h) for v in ("x", "y") for h in SITES]
        + [PtParam(h) for h in SITES]
    )
]

CASES = [
    ("escape", EscapeTheory(), ESCAPE_LITS, list(escape_pairs())),
    ("typestate", TypestateTheory(), TS_LITS, list(typestate_pairs())),
    ("provenance", ProvenanceTheory(), PT_LITS, list(provenance_pairs())),
]


# -- oracles: hand-written per-theory normalisers -----------------------------


def exclusive_oracle(theory, literals):
    """Resolve each exclusive-value group of ``literals`` by hand."""
    groups = {}
    values_of = {}
    rest = []
    for l in literals:
        info = theory.group_of(l.prim)
        if info is None:
            if l.negate() in literals:
                return None
            rest.append(l)
            continue
        key, value, all_values = info
        bucket = groups.setdefault(key, {})
        if value in bucket and bucket[value] != l.positive:
            return None
        bucket[value] = l.positive
        values_of[key] = all_values
    out = list(rest)
    for key, bucket in groups.items():
        positives = [v for v, sign in bucket.items() if sign]
        negatives = [v for v, sign in bucket.items() if not sign]
        if len(positives) >= 2:
            return None
        if positives:
            out.append(Literal(theory.make_primitive(key, positives[0]), True))
            continue
        remaining = [v for v in values_of[key] if v not in negatives]
        if not remaining:
            return None
        if len(remaining) == 1:
            out.append(Literal(theory.make_primitive(key, remaining[0]), True))
        else:
            out.extend(Literal(theory.make_primitive(key, v), False) for v in negatives)
    return frozenset(out)


def typestate_oracle(theory, literals):
    """``err`` excludes every positive ``var``/``type`` fact."""
    if any(l.negate() in literals for l in literals):
        return None
    has_err = Literal(ERR, True) in literals
    has_fact = any(
        l.positive and isinstance(l.prim, (TsVar, TsType)) for l in literals
    )
    if has_err and has_fact:
        return None
    out = set(literals)
    if has_err:
        out = {l for l in out if l.positive or not isinstance(l.prim, (TsVar, TsType))}
    if has_fact:
        out.discard(Literal(ERR, False))
    return frozenset(out)


def provenance_oracle(theory, literals):
    """``top(v)`` and ``h in v`` exclude each other."""
    if any(l.negate() in literals for l in literals):
        return None
    tops = {l.prim.var for l in literals if l.positive and isinstance(l.prim, PtTop)}
    out = set()
    for l in literals:
        if isinstance(l.prim, PtHas) and l.prim.var in tops:
            if l.positive:
                return None
            continue
        if not l.positive and isinstance(l.prim, PtTop) and any(
            other.positive and isinstance(other.prim, PtHas) and other.prim.var == l.prim.var
            for other in literals
        ):
            continue
        out.add(l)
    return frozenset(out)


ORACLES = {
    "escape": exclusive_oracle,
    "typestate": typestate_oracle,
    "provenance": provenance_oracle,
}


def reference_cube_entails(theory, stronger, weaker):
    """Figure 9's subsumption on frozensets: every literal of ``weaker``
    is entailed by a literal of ``stronger``."""
    return all(any(theory.lit_entails(a, b) for a in stronger) for b in weaker)


def as_dnf(universe, mask):
    """A normalised mask (``None``: unsatisfiable) as a one-cube mask DNF."""
    return {} if mask is None else {mask: universe.info(mask)}


def _cube_strategy(literals):
    return st.frozensets(st.sampled_from(literals), min_size=0, max_size=5)


@pytest.mark.parametrize("name,theory,literals,pairs", CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_normalize_cube_preserves_semantics(name, theory, literals, pairs):
    @given(_cube_strategy(literals))
    @settings(max_examples=150, deadline=None)
    def run(cube):
        normalized = theory.normalize_cube(cube)
        for p, d in pairs:
            before = evaluate_cube(cube, theory, p, d)
            after = (
                False
                if normalized is None
                else evaluate_cube(normalized, theory, p, d)
            )
            assert before == after, (cube, normalized, p, d)

    run()


@pytest.mark.parametrize("name,theory,literals,pairs", CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_normalize_cube_idempotent(name, theory, literals, pairs):
    @given(_cube_strategy(literals))
    @settings(max_examples=150, deadline=None)
    def run(cube):
        normalized = theory.normalize_cube(cube)
        if normalized is not None:
            assert theory.normalize_cube(normalized) == normalized

    run()


@pytest.mark.parametrize("name,theory,literals,pairs", CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_lit_entails_sound(name, theory, literals, pairs):
    for a in literals:
        for b in literals:
            if theory.lit_entails(a, b):
                for p, d in pairs:
                    if evaluate_literal(a, theory, p, d):
                        assert evaluate_literal(b, theory, p, d), (a, b)


@pytest.mark.parametrize("name,theory,literals,pairs", CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_cube_entails_literal_sound(name, theory, literals, pairs):
    @given(_cube_strategy(literals), st.sampled_from(literals))
    @settings(max_examples=150, deadline=None)
    def run(cube, target):
        if cube_entails(cube, frozenset([target]), theory):
            for p, d in pairs:
                if evaluate_cube(cube, theory, p, d):
                    assert evaluate_literal(target, theory, p, d)

    run()


@pytest.mark.parametrize("name,theory,literals,pairs", CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_literals_exhaust_sound(name, theory, literals, pairs):
    @given(st.frozensets(st.sampled_from(literals), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def run(lits):
        if theory.literals_exhaust(lits):
            for p, d in pairs:
                assert any(
                    evaluate_literal(l, theory, p, d) for l in lits
                ), lits

    run()


# -- the mask rules against the oracles ---------------------------------------


@pytest.mark.parametrize("name,theory,literals,pairs", CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_normalize_cube_matches_oracle(name, theory, literals, pairs):
    @given(_cube_strategy(literals))
    @settings(max_examples=300, deadline=None)
    def run(cube):
        assert theory.normalize_cube(cube) == ORACLES[name](theory, cube), cube

    run()


@pytest.mark.parametrize("name,theory,literals,pairs", CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_mask_join_matches_oracle_of_union(name, theory, literals, pairs):
    universe = theory.universe()

    @given(_cube_strategy(literals), _cube_strategy(literals))
    @settings(max_examples=300, deadline=None)
    def run(left, right):
        a = universe.normalize(universe.lower(left))
        b = universe.normalize(universe.lower(right))
        joined = universe.conjoin(as_dnf(universe, a), as_dnf(universe, b))
        expected = ORACLES[name](theory, left | right)
        assert [universe.lift(mask) for mask in joined] == (
            [] if expected is None else [expected]
        ), (left, right)
        for mask, info in joined.items():
            assert info == universe.info(mask)

    run()


@pytest.mark.parametrize("name,theory,literals,pairs", CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_mask_subsumption_matches_cube_entails(name, theory, literals, pairs):
    universe = theory.universe()

    @given(_cube_strategy(literals), _cube_strategy(literals))
    @settings(max_examples=300, deadline=None)
    def run(stronger, weaker):
        expected = reference_cube_entails(theory, stronger, weaker)
        assert cube_entails(stronger, weaker, theory) == expected
        masks = [universe.lower(weaker), universe.lower(stronger)]
        if masks[0] != masks[1]:
            kept = universe.simplify(masks, {m: universe.info(m) for m in masks})
            assert (kept == masks[:1]) == expected

    run()


@pytest.mark.parametrize("name,theory,literals,pairs", CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_lift_inverts_lower(name, theory, literals, pairs):
    universe = theory.universe()

    @given(_cube_strategy(literals))
    @settings(max_examples=150, deadline=None)
    def run(cube):
        normalized = theory.normalize_cube(cube)
        if normalized is not None:
            assert universe.lift(universe.lower(normalized)) == normalized

    run()


@pytest.mark.parametrize("name,theory,literals,pairs", CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_normalization_confluent(name, theory, literals, pairs):
    """normalize(normalize(A) | normalize(B)) == normalize(A | B): what
    lets a mask join work from two normalised cubes, in any order."""

    @given(_cube_strategy(literals), _cube_strategy(literals))
    @settings(max_examples=300, deadline=None)
    def run(left, right):
        a = theory.normalize_cube(left)
        b = theory.normalize_cube(right)
        whole = theory.normalize_cube(left | right)
        if a is None or b is None:
            assert whole is None
        else:
            assert theory.normalize_cube(a | b) == whole

    run()


def test_universe_growth_updates_literal_info():
    """Interning a literal related to older ones bumps the universe's
    epoch, and DNFs built afterwards see the new relation."""
    theory = TypestateTheory()
    universe = theory.universe()
    err = universe.bit_of(Literal(ERR, True))
    before = universe.unit(err)
    epoch = universe.epoch
    not_var = universe.bit_of(Literal(TsVar("x"), False))
    assert universe.epoch > epoch
    assert universe.unit(err) != before  # err now entails !var(x)
    joined = universe.conjoin(universe.unit(err), universe.unit(not_var))
    assert [universe.lift(mask) for mask in joined] == [frozenset([Literal(ERR, True)])]
