"""Property-based tests (hypothesis) for the formula machinery.

Ground truth is brute-force evaluation over a tiny (p, d) universe;
every syntactic transformation must be checked against it.
"""

from hypothesis import given, settings, strategies as st

from repro.core.formula import (
    FALSE,
    TRUE,
    And,
    FormulaExplosion,
    Or,
    conj,
    disj,
    drop_k,
    evaluate,
    evaluate_cube,
    lit,
    neg,
    nlit,
    simplify,
    to_dnf,
)
from tests.toys import TOY, ParamFact, StateFact

PARAMS = ["px", "py"]
STATES = ["a", "b", "c"]


def universe():
    for p_bits in range(2 ** len(PARAMS)):
        p = frozenset(n for i, n in enumerate(PARAMS) if p_bits >> i & 1)
        for d_bits in range(2 ** len(STATES)):
            d = frozenset(n for i, n in enumerate(STATES) if d_bits >> i & 1)
            yield p, d


UNIVERSE = list(universe())

atoms = st.sampled_from(
    [lit(StateFact(n)) for n in STATES]
    + [nlit(StateFact(n)) for n in STATES]
    + [lit(ParamFact(n)) for n in PARAMS]
    + [nlit(ParamFact(n)) for n in PARAMS]
    + [TRUE, FALSE]
)


def formulas(depth=3):
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(lambda fs: conj(*fs)),
            st.lists(children, min_size=1, max_size=3).map(lambda fs: disj(*fs)),
            children.map(neg),
        ),
        max_leaves=12,
    )


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_to_dnf_preserves_semantics(formula):
    dnf = to_dnf(formula, TOY)
    for p, d in UNIVERSE:
        assert evaluate(dnf, TOY, p, d) == evaluate(formula, TOY, p, d)


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_simplify_preserves_semantics(formula):
    dnf = to_dnf(formula, TOY)
    simplified = simplify(dnf, TOY)
    for p, d in UNIVERSE:
        assert evaluate(simplified, TOY, p, d) == evaluate(dnf, TOY, p, d)


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_double_negation_preserves_semantics(formula):
    double = neg(neg(formula))
    for p, d in UNIVERSE:
        assert evaluate(double, TOY, p, d) == evaluate(formula, TOY, p, d)


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_negation_complements(formula):
    negated = neg(formula)
    for p, d in UNIVERSE:
        assert evaluate(negated, TOY, p, d) != evaluate(formula, TOY, p, d)


@given(formulas(), st.integers(min_value=1, max_value=4))
@settings(max_examples=200, deadline=None)
def test_drop_k_under_approximates_and_keeps_current(formula, k):
    dnf = simplify(to_dnf(formula, TOY), TOY)
    for current_p, current_d in UNIVERSE:
        if not evaluate(dnf, TOY, current_p, current_d):
            continue
        pruned = drop_k(
            dnf, k, lambda cube: evaluate_cube(cube, TOY, current_p, current_d)
        )
        # Requirement 2: (p, d) stays covered.
        assert evaluate(pruned, TOY, current_p, current_d)
        # Requirement 1: under-approximation.
        for p, d in UNIVERSE:
            if evaluate(pruned, TOY, p, d):
                assert evaluate(dnf, TOY, p, d)
        # Beam width respected.
        assert len(pruned.cubes) <= max(k, 1)
        break  # one current pair per example keeps the test fast


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_dnf_cubes_sorted_by_size(formula):
    dnf = to_dnf(formula, TOY)
    sizes = [len(cube) for cube in dnf.cubes]
    assert sizes == sorted(sizes)


def smallest_budget(formula):
    """The smallest ``max_cubes`` under which ``to_dnf`` does not explode."""
    budget = 0
    while True:
        try:
            to_dnf(formula, TOY, max_cubes=budget)
            return budget
        except FormulaExplosion:
            budget += 1


def shuffled(formula, rng):
    """``formula`` with the arguments of every ``And``/``Or`` permuted."""
    if isinstance(formula, (And, Or)):
        args = [shuffled(arg, rng) for arg in formula.args]
        rng.shuffle(args)
        return type(formula)(tuple(args))
    return formula


#: Conjunctions of small disjunctions: their DNF product is where the
#: multiplication order shows.
cnfs = st.lists(
    st.lists(atoms, min_size=1, max_size=3).map(lambda fs: disj(*fs)),
    min_size=2,
    max_size=5,
).map(lambda fs: conj(*fs))


@given(st.one_of(formulas(), cnfs), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_to_dnf_independent_of_argument_order(formula, rng):
    """Neither the DNF nor whether it explodes under a cube budget may
    depend on the order of conjuncts and disjuncts (which follows hash
    order wherever formulas are built from sets)."""
    other = shuffled(formula, rng)
    assert to_dnf(other, TOY) == to_dnf(formula, TOY)
    assert smallest_budget(other) == smallest_budget(formula)
