"""Tests for the backward meta-analysis engine (Figure 7) including
Theorem 3 soundness checked by enumeration on the type-state client."""

import itertools
import random

import pytest

from repro.core.formula import Dnf, evaluate
from repro.core.meta import approx, backward_trace
from repro.lang import Assign, AssignNull, Invoke, New
from repro.typestate import (
    TsState,
    TypestateAnalysis,
    TypestateClient,
    TypestateMeta,
    file_automaton,
)
from repro.typestate.meta import TsType
from repro.core.formula import disj, lit
from repro.typestate.meta import ERR
from tests.randprog import VARS, random_typestate_program
from repro.lang import enumerate_traces

FAIL = disj(lit(ERR), lit(TsType("opened")))  # not(check1) of Figure 1


def _analysis():
    return TypestateAnalysis(file_automaton(), "h1", frozenset(VARS))


def _all_params():
    for r in range(len(VARS) + 1):
        for combo in itertools.combinations(VARS, r):
            yield frozenset(combo)


class TestBackwardTrace:
    def test_rejects_non_counterexample(self):
        analysis = _analysis()
        meta = TypestateMeta(analysis)
        trace = (New("x", "h1"),)  # ends in ({closed}, ...), not failing
        with pytest.raises(ValueError):
            backward_trace(
                meta, analysis, trace, frozenset(), analysis.initial_state(), FAIL
            )

    def test_empty_trace(self):
        analysis = _analysis()
        meta = TypestateMeta(analysis)
        d0 = TsState.make(["opened"], [])
        result = backward_trace(meta, analysis, (), frozenset(), d0, FAIL)
        assert evaluate(result.condition, meta.theory, frozenset(), d0)

    def test_intermediate_has_one_formula_per_point(self):
        analysis = _analysis()
        meta = TypestateMeta(analysis)
        trace = (New("x", "h1"), Invoke("x", "open"))
        result = backward_trace(
            meta, analysis, trace, frozenset(), analysis.initial_state(), FAIL
        )
        assert len(result.intermediate) == len(trace) + 1

    def test_intermediate_is_lifted_on_demand(self):
        """A pass lifts only its condition; ``step_disjuncts`` reads the
        mask steps, and the lifted states agree with them."""
        analysis = _analysis()
        meta = TypestateMeta(analysis)
        trace = (New("x", "h1"), Invoke("x", "open"), Invoke("x", "close"))
        result = backward_trace(
            meta, analysis, trace, frozenset(), analysis.initial_state(), FAIL
        )
        assert result._intermediate is None
        disjuncts = result.step_disjuncts
        assert result._intermediate is None
        assert disjuncts == [len(state.cubes) for state in result.intermediate]
        assert result.intermediate[0] is result.condition
        assert result.intermediate is result.intermediate

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("k", [1, 2, None])
    def test_theorem3_soundness(self, seed, k):
        """(1) the current (p, dI) is in the result; (2) every pair in
        the result really fails along the trace."""
        rng = random.Random(seed * 3 + (7 if k is None else k))
        program = random_typestate_program(rng, length=5)
        analysis = _analysis()
        meta = TypestateMeta(analysis)
        d_init = analysis.initial_state()
        traces = list(enumerate_traces(program, max_unroll=2))[:6]
        for p in [frozenset(), frozenset({"x"}), frozenset(VARS)]:
            for trace in traces:
                trace = trace[:-1]  # drop the observe
                final = analysis.run_trace(trace, p, d_init)
                if not evaluate(FAIL, meta.theory, p, final):
                    continue
                result = backward_trace(
                    meta, analysis, trace, p, d_init, FAIL, k=k
                )
                # Theorem 3.1: the current pair is covered.
                assert evaluate(result.condition, meta.theory, p, d_init)
                # Theorem 3.2: everything covered indeed fails.
                for p0 in _all_params():
                    if evaluate(result.condition, meta.theory, p0, d_init):
                        final0 = analysis.run_trace(trace, p0, d_init)
                        assert evaluate(FAIL, meta.theory, p0, final0), (
                            trace,
                            sorted(p0),
                        )


class TestApprox:
    def test_beam_none_only_simplifies(self):
        meta = TypestateMeta(_analysis())
        theory = meta.theory
        from repro.core.formula import to_dnf, conj, nlit

        formula = disj(lit(ERR), conj(lit(ERR), nlit(TsType("opened"))))
        dnf = to_dnf(formula, theory)
        out = approx(dnf, theory, frozenset(), TsState.make([], []), None)
        assert len(out.cubes) == 1  # redundant longer cube dropped

    def test_beam_keeps_current(self):
        meta = TypestateMeta(_analysis())
        theory = meta.theory
        from repro.core.formula import to_dnf, conj

        d = TsState.make(["opened"], [])
        formula = disj(
            lit(ERR),
            conj(lit(TsType("opened")), lit(TsType("closed"))),
            lit(TsType("opened")),
        )
        dnf = to_dnf(formula, theory)
        out = approx(dnf, theory, frozenset(), d, 1)
        assert evaluate(out, theory, frozenset(), d)


class TestWpCache:
    def test_cached_wp_identical_to_direct(self):
        analysis = _analysis()
        meta = TypestateMeta(analysis)
        command = Assign("x", "y")
        for prim in [ERR, TsType("opened")]:
            assert meta.wp_cached(command, prim) == meta.wp_primitive(
                command, prim
            )
            # Second call hits the cache.
            assert meta.wp_cached(command, prim) == meta.wp_primitive(
                command, prim
            )

    def test_lowered_factors_follow_universe_growth(self):
        """A literal interned after a wp was lowered may relate to the
        lowered cubes' literals; the memo hands out their info updated."""
        from repro.core.formula import Literal
        from repro.typestate.meta import TsVar

        meta = TypestateMeta(_analysis())
        universe = meta.theory.universe()
        command = Invoke("x", "open")
        err = universe.bit_of(Literal(ERR, True))
        first = meta.wp_factors(command, 1 << err, None)
        assert first is not None and first[err] != universe.unit(err)
        epoch = universe.epoch
        universe.bit_of(Literal(TsVar("fresh"), True))  # err excludes var(fresh)
        assert universe.epoch > epoch
        again = meta.wp_factors(command, 1 << err, None)
        assert list(again[err]) == list(first[err])
        for mask, info in again[err].items():
            assert info == universe.info(mask)
        assert any(again[err][mask] != first[err][mask] for mask in first[err])


class TestProductMemo:
    """Each command's wp memo entry keeps its cube products, keyed by
    the step's input cubes, with the peak live-cube count of computing
    them; a kept product must behave as computing it again would."""

    #: A pass whose largest product peak (4) exceeds both its lowered
    #: factors' peaks (3) and its post-condition's cube count (2).
    SEED, LENGTH, ALLOWED = 29, 10, frozenset({"opened"})

    def _client(self):
        program = random_typestate_program(random.Random(self.SEED), self.LENGTH)
        return TypestateClient(program, file_automaton(), "h1", frozenset(VARS))

    def _run(self, client, max_cubes, k=None):
        from repro.typestate import TypestateQuery

        query = TypestateQuery("q", self.ALLOWED)
        trace = client.counterexamples([query], frozenset())[query]
        return backward_trace(
            client.meta,
            client.analysis,
            trace,
            frozenset(),
            client.analysis.initial_state(),
            client.fail_condition(query),
            k=k,
            max_cubes=max_cubes,
        )

    @staticmethod
    def _records(meta):
        return [record for _command, record in meta._by_command.values()]

    def test_kept_peak_rechecked_against_max_cubes(self):
        from repro.core.formula import FormulaExplosion

        warm = self._client()
        unbounded = self._run(warm, None)
        records = self._records(warm.meta)
        peak = max(p[2] for r in records for p in r.products.values())
        assert peak > max(fp for r in records for _f, fp in r.factors.values())
        assert peak - 1 >= len(unbounded.intermediate[-1].cubes)
        # Filled with no bound, the memo must still refuse a bound below
        # a kept product's peak, exactly as a cold meta does.
        with pytest.raises(FormulaExplosion):
            self._run(warm, peak - 1)
        with pytest.raises(FormulaExplosion):
            self._run(self._client(), peak - 1)
        assert self._run(warm, peak) == unbounded
        assert self._run(self._client(), peak) == unbounded

    def test_warm_pass_after_epoch_bump_equals_cold(self):
        from repro.core.formula import Literal
        from repro.typestate.meta import TsVar

        warm = self._client()
        for k in (1, None):
            self._run(warm, None, k)
        assert any(record.products for record in self._records(warm.meta))
        universe = warm.meta.theory.universe()
        epoch = universe.epoch
        universe.bit_of(Literal(TsVar("fresh"), True))  # err excludes var(fresh)
        assert universe.epoch > epoch
        for k in (1, None):
            assert self._run(warm, None, k) == self._run(self._client(), None, k)
        for record in self._records(warm.meta):
            if record.products:
                assert record.epoch == universe.epoch
