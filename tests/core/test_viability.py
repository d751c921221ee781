"""Tests for the viable-abstraction constraint store."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.viability as viability_mod
from repro.core.formula import Dnf, Literal, to_dnf, conj, disj, lit, nlit
from repro.core.lru import LruCache
from repro.core.minsat import MinCostSat, SolverBudgetExceeded
from repro.core.viability import ViabilityStore
from tests.toys import TOY, ParamFact, StateFact

D_INIT = frozenset({"a"})  # the fixed initial state: fact `a` holds


def _dnf(formula):
    return to_dnf(formula, TOY)


class TestClauseExtraction:
    def test_param_only_cube_becomes_clause(self):
        store = ViabilityStore(TOY, D_INIT)
        store.add_failure_condition(_dnf(lit(ParamFact("x"))))
        # Everything containing x is unviable; minimum is {}.
        assert store.choose_minimum() == frozenset()
        assert store.excludes(frozenset({"x"}))
        assert not store.excludes(frozenset())

    def test_negated_param_cube(self):
        store = ViabilityStore(TOY, D_INIT)
        store.add_failure_condition(_dnf(nlit(ParamFact("x"))))
        # Everything NOT containing x is unviable; minimum is {x}.
        assert store.choose_minimum() == frozenset({"x"})

    def test_state_literal_true_at_dinit_keeps_clause(self):
        store = ViabilityStore(TOY, D_INIT)
        store.add_failure_condition(
            _dnf(conj(lit(StateFact("a")), nlit(ParamFact("x"))))
        )
        assert store.choose_minimum() == frozenset({"x"})

    def test_state_literal_false_at_dinit_drops_cube(self):
        store = ViabilityStore(TOY, D_INIT)
        added = store.add_failure_condition(
            _dnf(conj(lit(StateFact("b")), nlit(ParamFact("x"))))
        )
        assert added == ()
        assert store.choose_minimum() == frozenset()

    def test_pure_state_cube_makes_impossible(self):
        store = ViabilityStore(TOY, D_INIT)
        store.add_failure_condition(_dnf(lit(StateFact("a"))))
        assert store.choose_minimum() is None
        assert store.excludes(frozenset({"anything"}))

    def test_multiple_cubes_multiple_clauses(self):
        store = ViabilityStore(TOY, D_INIT)
        condition = _dnf(
            disj(nlit(ParamFact("x")), conj(lit(ParamFact("x")), nlit(ParamFact("y"))))
        )
        store.add_failure_condition(condition)
        # not(x notin p) and not(x in p and y notin p): must have x and y.
        assert store.choose_minimum() == frozenset({"x", "y"})

    def test_accumulation_until_unsat(self):
        store = ViabilityStore(TOY, D_INIT)
        store.add_failure_condition(_dnf(nlit(ParamFact("x"))))
        assert store.choose_minimum() == frozenset({"x"})
        store.add_failure_condition(_dnf(lit(ParamFact("x"))))
        assert store.choose_minimum() is None

    def test_copy_is_independent(self):
        store = ViabilityStore(TOY, D_INIT)
        store.add_failure_condition(_dnf(nlit(ParamFact("x"))))
        clone = store.copy()
        clone.add_failure_condition(_dnf(lit(ParamFact("x"))))
        assert clone.choose_minimum() is None
        assert store.choose_minimum() == frozenset({"x"})

    def test_excludes_reflects_clauses(self):
        store = ViabilityStore(TOY, D_INIT)
        store.add_failure_condition(
            _dnf(conj(lit(ParamFact("x")), lit(ParamFact("y"))))
        )
        assert store.excludes(frozenset({"x", "y"}))
        assert not store.excludes(frozenset({"x"}))


def _fresh_minimum(clauses):
    solver = MinCostSat()
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()


# Small clause lists over 4 variables: duplicates, tautologies
# ((v, True) and (v, False) together) and the empty clause all occur.
_literals = st.tuples(st.integers(0, 3), st.booleans())
_clause_lists = st.lists(
    st.frozensets(_literals, max_size=3), min_size=0, max_size=7
)


class TestMinimumMemo:
    """``choose_minimum`` memoises MinCostSAT per exact clause sequence;
    the memo must answer exactly what a fresh solve answers."""

    @given(st.lists(_clause_lists, min_size=1, max_size=3), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_equals_a_fresh_solve_interleaved_across_stores(
        self, clause_lists, rng
    ):
        stores = [ViabilityStore(TOY, D_INIT) for _ in clause_lists]
        steps = [i for i, clauses in enumerate(clause_lists) for _ in clauses]
        rng.shuffle(steps)
        applied = [0] * len(stores)
        for i in steps + list(range(len(stores))):
            clauses = clause_lists[i]
            if applied[i] < len(clauses):
                stores[i].add_clauses([clauses[applied[i]]])
                applied[i] += 1
            expected = _fresh_minimum(clauses[: applied[i]])
            assert stores[i].choose_minimum() == expected
            assert stores[i].choose_minimum() == expected

    def test_budget_overrun_is_never_memoised(self, monkeypatch):
        monkeypatch.setattr(viability_mod, "_MINIMA", LruCache(8))
        store = ViabilityStore(TOY, D_INIT)
        # No unit clauses: the solver must branch past its 1-node budget.
        store.add_clauses(
            [frozenset({("x", True), ("y", True)}),
             frozenset({("y", False), ("z", True)})]
        )
        monkeypatch.setattr(
            viability_mod, "MinCostSat", lambda: MinCostSat(max_nodes=1)
        )
        for _ in range(3):
            with pytest.raises(SolverBudgetExceeded):
                store.choose_minimum()
        assert len(viability_mod._MINIMA) == 0
        monkeypatch.setattr(viability_mod, "MinCostSat", MinCostSat)
        assert store.choose_minimum() == _fresh_minimum(store.clauses)

    def test_impossible_store_answers_before_the_memo(self, monkeypatch):
        memo = LruCache(8)
        monkeypatch.setattr(viability_mod, "_MINIMA", memo)
        store = ViabilityStore(TOY, D_INIT)
        store.add_failure_condition(_dnf(lit(StateFact("a"))))
        assert store.choose_minimum() is None
        assert memo.hits == memo.misses == len(memo) == 0


_LITERAL = st.tuples(st.sampled_from("wxyz"), st.booleans())
_CLAUSE = st.frozensets(_LITERAL, min_size=1, max_size=3)


class TestRefutes:
    """The replay step checks only a survivor's added clauses against
    its round's abstraction.  That is exact because the abstraction is
    the group store's MinCostSAT minimum, which satisfies every older
    clause."""

    def test_empty_clause_refutes_everything(self):
        assert viability_mod.refutes([frozenset()], frozenset({"x"}))
        assert not viability_mod.refutes([], frozenset())

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_CLAUSE, max_size=6),
        st.lists(_CLAUSE, min_size=1, max_size=4),
    )
    def test_added_clauses_decide_exclusion_of_the_minimum(
        self, older, added
    ):
        store = ViabilityStore(TOY, D_INIT)
        store.add_clauses(older)
        p = store.choose_minimum()
        if p is None:
            return  # no minimum, no ok round to replay
        assert not viability_mod.refutes(older, p)
        grown = store.copy()
        grown.add_clauses(added)
        assert grown.excludes(p) == viability_mod.refutes(added, p)
