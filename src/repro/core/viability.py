"""The ``viable`` abstraction store of Algorithm 1.

TRACER tracks the set of abstractions that may still prove the query.
A failure condition learned by the backward meta-analysis is a DNF
formula over parameter primitives and state primitives; evaluated at
the (fixed) initial abstract state ``dI`` it denotes the set of
*unviable* abstractions ``{p | (p, dI) in gamma(condition)}``
(Algorithm 1, line 14).  This store keeps ``viable`` implicitly as a
CNF over boolean parameter variables:

* every cube of the failure condition whose state literals hold at
  ``dI`` eliminates the abstractions satisfying its parameter
  literals, so its negation — a clause of negated parameter literals —
  is conjoined onto the store (line 15);
* choosing a minimum viable abstraction (line 8) is MinCostSAT;
* emptiness (line 5) is unsatisfiability.

Parameter primitives are mapped to SAT variables by the client theory
via :meth:`ParamTheory.param_var`; an abstraction is reconstructed
from a model as the set of true variables, which matches both clients
(tracked-variable sets; ``L``-mapped site sets).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.core.formula import Cube, Dnf, Theory, evaluate_literal
from repro.core.lru import LruCache
from repro.core.minsat import Clause, MinCostSat

#: MinCostSAT answers per exact clause sequence.  The solver runs with
#: default costs and a deterministic search order, so its answer is a
#: function of the sequence; replayed searches re-solve the same few
#: sequences over and over.  Holds clauses and results only.
_MINIMA = LruCache(1024)
_UNSOLVED = object()


def refutes(clauses: Iterable[Clause], p: FrozenSet[object]) -> bool:
    """Whether abstraction ``p`` falsifies one of ``clauses`` (an empty
    clause refutes every abstraction)."""
    for clause in clauses:
        if not any((var in p) == sign for var, sign in clause):
            return True
    return False


class ParamTheory(Theory):
    """A theory whose parameter primitives map onto boolean variables."""

    def param_var(self, prim) -> Tuple[object, bool]:
        """Return ``(variable, polarity)`` for a parameter primitive:
        the primitive holds of ``p`` iff ``variable in p`` equals
        ``polarity``."""
        raise NotImplementedError


class ViabilityStore:
    """Implicit representation of the viable-abstraction set."""

    def __init__(self, theory: ParamTheory, d_init: object):
        self._theory = theory
        self._d_init = d_init
        self._clauses: List[Clause] = []
        self._impossible = False

    def copy(self) -> "ViabilityStore":
        dup = ViabilityStore(self._theory, self._d_init)
        dup._clauses = list(self._clauses)
        dup._impossible = self._impossible
        return dup

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        return tuple(self._clauses)

    def add_failure_condition(self, condition: Dnf) -> Tuple[Clause, ...]:
        """Conjoin ``not condition|dI`` onto the store; returns the
        clauses actually derived (used by the group driver to decide
        how to split query groups)."""
        added: List[Clause] = []
        for cube in condition.cubes:
            clause = self._clause_of_cube(cube)
            if clause is None:
                continue
            if not clause:
                self._impossible = True
            added.append(clause)
            self._clauses.append(clause)
        return tuple(added)

    def warm_start(
        self,
        clauses: Iterable[Clause],
        universe: Optional[Iterable[object]] = None,
    ) -> Tuple[Tuple[Clause, ...], Tuple[Clause, ...]]:
        """Seed the store with clauses learned by a *previous* search
        (the knowledge-store warm-start path; see
        :mod:`repro.serve.store`), so abstractions refuted back then
        are never chosen — and never forward-run — again.

        Unlike :meth:`add_clauses` (the journal replay path, whose
        clauses are integrity-checked round by round), seeded clauses
        arrive from outside this search, so they are *validated* before
        they constrain anything: a clause naming a parameter variable
        outside ``universe`` (the current parameter space) is dropped —
        on a lightly-edited program such a clause could silently mask
        viable abstractions, or with a positive orphan literal declare
        the query impossible outright.  When ``universe`` is ``None``
        the space is unknown and *every* clause is dropped (seeding is
        an optimisation; refusing it is always sound).

        Returns ``(seeded, dropped)``."""
        seeded: List[Clause] = []
        dropped: List[Clause] = []
        known = None if universe is None else set(universe)
        for clause in clauses:
            if known is None or any(var not in known for var, _sign in clause):
                dropped.append(clause)
                continue
            seeded.append(clause)
        self.add_clauses(seeded)
        return tuple(seeded), tuple(dropped)

    def add_clauses(self, clauses: Iterable[Clause]) -> Tuple[Clause, ...]:
        """Conjoin already-derived clauses onto the store — the journal
        replay path: a resumed search re-applies the clauses recorded
        by the interrupted run instead of re-deriving them from
        counterexample traces.  Mirrors the bookkeeping of
        :meth:`add_failure_condition` (an empty clause marks the store
        impossible) and returns the clauses in application order so the
        caller can recompute group-split signatures."""
        added: List[Clause] = []
        for clause in clauses:
            if not clause:
                self._impossible = True
            added.append(clause)
            self._clauses.append(clause)
        return tuple(added)

    def _clause_of_cube(self, cube: Cube) -> Optional[Clause]:
        """Negate one eliminated cube into a clause, or ``None`` when
        the cube eliminates nothing (a state literal fails at ``dI``)."""
        literals = []
        for l in cube:
            if self._theory.is_param(l.prim):
                var, polarity = self._theory.param_var(l.prim)
                asserted = polarity if l.positive else not polarity
                literals.append((var, not asserted))
            else:
                # State literal: evaluated at dI (state primitives do
                # not inspect the abstraction, so any p works here).
                if not evaluate_literal(l, self._theory, frozenset(), self._d_init):
                    return None
        return frozenset(literals)

    def _solver(self) -> MinCostSat:
        solver = MinCostSat()
        for clause in self._clauses:
            solver.add_clause(clause)
        return solver

    def choose_minimum(self) -> Optional[FrozenSet[object]]:
        """A minimum-cost viable abstraction, or ``None`` when the
        viable set is empty (the query is impossible to prove)."""
        if self._impossible:
            return None
        key = tuple(self._clauses)
        minimum = _MINIMA.get(key, _UNSOLVED)
        if minimum is _UNSOLVED:
            minimum = self._solver().solve()
            _MINIMA.put(key, minimum)
        return minimum

    def excludes(self, p: FrozenSet[object]) -> bool:
        """Whether abstraction ``p`` is already eliminated — used to
        assert TRACER's progress guarantee after every iteration."""
        return self._impossible or refutes(self._clauses, p)
