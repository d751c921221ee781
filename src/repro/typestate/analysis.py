"""Transfer semantics of the type-state analysis (Figure 4), as
guarded-update case tables.

One analysis instance tracks the objects of a single allocation site
``tracked_site``.  A call ``v.m()`` is an *event* when ``m`` belongs to
the automaton and ``v`` may point to the tracked site according to a
may-alias oracle (the 0-CFA analysis of the front end); other commands
affect only the must-alias set:

* ``x = y`` adds ``x`` to the must-alias set iff ``y`` is in it *and*
  the abstraction ``p`` tracks ``x`` — otherwise ``x`` is dropped;
* any other assignment to ``x`` (``null``, a fresh allocation at a
  different site, a field/global load) drops ``x``;
* ``x = new tracked_site`` (re)starts tracking: the state becomes
  ``({init}, {x} ∩ p)``;
* heap stores and thread starts leave the state unchanged.

``TOP`` is absorbing: every non-trivial table opens with an
``err``-guarded identity case, so the remaining guards and effects may
assume a ``(ts, vs)`` state.  Each command is described once by
:meth:`TypestateSemantics.table_for`; the framework derives both the
forward transfer function and the Figure 10 weakest preconditions from
the same table.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional

from repro.core.formula import TRUE, conj, disj, lit, neg, nlit
from repro.core.parametric import ParametricAnalysis, SubsetParamSpace
from repro.core.semantics import (
    IDENTITY,
    BoolExpr,
    Case,
    Const,
    Effect,
    GuardedSemantics,
    Location,
    SemanticsBinding,
    Updates,
)
from repro.lang.ast import (
    Assign,
    AssignNull,
    AtomicCommand,
    Invoke,
    LoadField,
    LoadGlobal,
    New,
    Observe,
    StoreField,
    StoreGlobal,
    ThreadStart,
)
from repro.typestate.automaton import TypestateAutomaton
from repro.typestate.domain import TOP, TsState, TsTop
from repro.typestate.meta import (
    ERR,
    TsErr,
    TsParam,
    TsType,
    TsVar,
    TypestateTheory,
)

MayPoint = Callable[[str], bool]

_ERR_LOC: Location = ("err",)


class TypestateBinding(SemanticsBinding):
    """Location <-> primitive binding: ``("err",)`` for the ``TOP``
    flag, ``("var", x)`` for must-alias membership, ``("type", s)``
    for type-state membership; parameter primitives have no location."""

    def __init__(self):
        self.theory = TypestateTheory()

    def location_of(self, prim):
        if isinstance(prim, TsErr):
            return _ERR_LOC
        if isinstance(prim, TsVar):
            return ("var", prim.var)
        if isinstance(prim, TsType):
            return ("type", prim.state)
        return None  # TsParam: a parameter primitive

    def location_literal(self, location, value):
        kind = location[0]
        if kind == "err":
            target = lit(ERR)
        elif kind == "var":
            target = lit(TsVar(location[1]))
        else:
            target = lit(TsType(location[1]))
        return target if value else neg(target)

    def compile_read(self, location):
        kind = location[0]
        if kind == "err":
            return lambda p, d: isinstance(d, TsTop)
        name = location[1]
        if kind == "var":
            return lambda p, d: name in d.vs
        return lambda p, d: name in d.ts

    def compile_write(self, location):
        # The ``err`` flag is only ever written by the special effects
        # (GoTop/Restart), which build whole states directly.
        kind, name = location
        if kind == "var":

            def write_var(d, value):
                if value:
                    return d if name in d.vs else d.with_vs(d.vs | {name})
                return d.with_vs(d.vs - {name}) if name in d.vs else d

            return write_var
        if kind == "type":

            def write_type(d, value):
                if value:
                    return d if name in d.ts else d.with_ts(d.ts | {name})
                return d.with_ts(d.ts - {name}) if name in d.ts else d

            return write_type
        raise TypeError(f"cannot write location {location!r} generically")

    def compile_store(self, locations):
        # Batch form for the event tables, which rewrite every
        # type-state membership at once: build the new ts set in one
        # pass instead of chaining with_ts.
        if all(loc[0] == "type" for loc in locations):
            states = tuple(loc[1] for loc in locations)
            written = frozenset(states)

            def store(d, values):
                ts = frozenset(
                    s for s, value in zip(states, values) if value
                ) | (d.ts - written)
                return d if ts == d.ts else d.with_ts(ts)

            return store
        return super().compile_store(locations)

    def compile_primitive_test(self, prim):
        # Guards are evaluated in table order and every state-reading
        # guard sits behind an err-guarded identity case, so the var/
        # type tests may assume a TsState.
        if isinstance(prim, TsErr):
            return lambda p, d: isinstance(d, TsTop)
        if isinstance(prim, TsParam):
            var = prim.var
            return lambda p, d: var in p
        if isinstance(prim, TsVar):
            var = prim.var
            return lambda p, d: var in d.vs
        state = prim.state
        return lambda p, d: state in d.ts

    def compile_primitive_test_bound(self, prim, p):
        if isinstance(prim, TsErr):
            return lambda d: isinstance(d, TsTop)
        if isinstance(prim, TsParam):
            value = prim.var in p
            return lambda d: value
        if isinstance(prim, TsVar):
            var = prim.var
            return lambda d: var in d.vs
        state = prim.state
        return lambda d: state in d.ts


class GoTop(Effect):
    """The error transition: the state becomes the absorbing ``TOP``."""

    __slots__ = ()

    def __repr__(self):
        return "GoTop()"

    def value_expr_at(self, location, binding):
        if location[0] == "err":
            return Const(True)
        return Const(False)

    def compile(self, binding):
        return lambda p, d: TOP

    def param_primitives(self, binding):
        return ()


GO_TOP = GoTop()


class Restart(Effect):
    """``x = new tracked_site``: the state becomes ``({init}, {x} ∩ p)``."""

    __slots__ = ("lhs", "init")

    def __init__(self, lhs: str, init: str):
        self.lhs = lhs
        self.init = init

    def __repr__(self):
        return f"Restart({self.lhs!r}, {self.init!r})"

    def value_expr_at(self, location, binding):
        kind = location[0]
        if kind == "err":
            return Const(False)
        if kind == "type":
            return Const(location[1] == self.init)
        if location[1] == self.lhs:
            return BoolExpr(lit(TsParam(self.lhs)))
        return Const(False)

    def compile(self, binding):
        lhs = self.lhs
        ts = frozenset([self.init])
        tracked = frozenset([lhs])
        untracked = frozenset()
        return lambda p, d: TsState(ts, tracked if lhs in p else untracked)

    def param_primitives(self, binding):
        return (TsParam(self.lhs),)


class TypestateSemantics(GuardedSemantics):
    """Case tables of the type-state transfer functions.

    A table depends on the tracked site only at ``New`` and at event
    calls, and :meth:`table_key` records exactly that, so semantics of
    different sites over one automaton can share a binding and a
    compiled store: pass the first as ``sibling`` to the others."""

    metrics_name = "typestate"

    def __init__(
        self,
        automaton: TypestateAutomaton,
        tracked_site: str,
        is_event: Callable[[AtomicCommand], bool],
        sibling: Optional["TypestateSemantics"] = None,
    ):
        if sibling is None:
            super().__init__(TypestateBinding())
        elif sibling.automaton is not automaton:
            raise ValueError("sibling semantics must share one automaton")
        else:
            super().__init__(sibling.binding, sibling.compiled_store)
        self.automaton = automaton
        self.tracked_site = tracked_site
        self._is_event = is_event

    def table_key(self, command: AtomicCommand):
        """A ``New`` table depends on whether it allocates the tracked
        site, an ``Invoke`` table on whether it is an event; every other
        table on the command alone."""
        if isinstance(command, New):
            return (command, command.site == self.tracked_site)
        if isinstance(command, Invoke):
            return (command, self._is_event(command))
        return command

    def table_for(self, command: AtomicCommand):
        if isinstance(command, New):
            if command.site == self.tracked_site:
                return self._guarded(
                    Restart(command.lhs, self.automaton.init)
                )
            return self._drop(command.lhs)
        if isinstance(command, Assign):
            value = BoolExpr(
                conj(lit(TsParam(command.lhs)), lit(TsVar(command.rhs)))
            )
            return self._guarded(Updates.of({("var", command.lhs): value}))
        if isinstance(command, (AssignNull, LoadField, LoadGlobal)):
            return self._drop(command.lhs)
        if isinstance(command, Invoke) and self._is_event(command):
            return self._event_table(command)
        if isinstance(
            command, (StoreField, StoreGlobal, ThreadStart, Observe, Invoke)
        ):
            return (Case(TRUE, IDENTITY),)
        raise TypeError(f"unknown command: {command!r}")

    @staticmethod
    def _guarded(effect: Effect):
        """TOP is absorbing: every effect sits behind an err guard."""
        return (Case(lit(ERR), IDENTITY), Case(nlit(ERR), effect))

    def _drop(self, lhs: str):
        """An assignment whose source is untracked drops ``lhs``."""
        return self._guarded(Updates.of({("var", lhs): Const(False)}))

    def _event_table(self, command: Invoke):
        """An automaton event ``v.m()``: strong update when ``v`` is
        must-aliased, weak update (union with the old type-states)
        otherwise; either errs from the table's error states."""
        automaton = self.automaton
        method = command.method
        base = command.base
        states = sorted(automaton.states)
        strong_err = sorted(automaton.strong_error_states(method))
        weak_err = sorted(automaton.weak_error_states(method))
        in_strong_err = disj(*(lit(TsType(s)) for s in strong_err))
        no_strong_err = conj(*(nlit(TsType(s)) for s in strong_err))
        in_weak_err = disj(*(lit(TsType(s)) for s in weak_err))
        no_weak_err = conj(*(nlit(TsType(s)) for s in weak_err))
        aliased = lit(TsVar(base))
        not_aliased = nlit(TsVar(base))

        strong_updates = {}
        for s2 in states:
            pre = disj(
                *(
                    lit(TsType(s))
                    for s in sorted(automaton.strong_preimage(method, s2))
                )
            )
            if pre != lit(TsType(s2)):
                strong_updates[("type", s2)] = BoolExpr(pre)
        weak_updates = {}
        for s2 in states:
            pre = disj(
                lit(TsType(s2)),
                *(
                    lit(TsType(s))
                    for s in sorted(automaton.weak_preimage(method, s2))
                    if s != s2
                ),
            )
            if pre != lit(TsType(s2)):
                weak_updates[("type", s2)] = BoolExpr(pre)

        return (
            Case(lit(ERR), IDENTITY),
            Case(conj(aliased, in_strong_err), GO_TOP),
            Case(conj(aliased, no_strong_err), Updates.of(strong_updates)),
            Case(conj(not_aliased, nlit(ERR), in_weak_err), GO_TOP),
            Case(
                conj(not_aliased, nlit(ERR), no_weak_err),
                Updates.of(weak_updates),
            ),
        )


class TypestateAnalysis(ParametricAnalysis):
    """The parametric type-state analysis ``(2^V, |.|, D, [[.]]p)``.

    ``sibling``, an analysis of another site over the same automaton,
    lends this one its binding and compiled store (see
    :class:`TypestateSemantics`)."""

    def __init__(
        self,
        automaton: TypestateAutomaton,
        tracked_site: str,
        variables: FrozenSet[str],
        may_point: Optional[MayPoint] = None,
        event_labels: Optional[FrozenSet[str]] = None,
        sibling: Optional["TypestateAnalysis"] = None,
    ):
        self.automaton = automaton
        self.tracked_site = tracked_site
        self.param_space = SubsetParamSpace(frozenset(variables))
        self.may_point: MayPoint = may_point or (lambda _var: True)
        self.event_labels = event_labels
        self.semantics = TypestateSemantics(
            automaton,
            tracked_site,
            self.is_event,
            None if sibling is None else sibling.semantics,
        )

    def initial_state(self) -> TsState:
        """Before any allocation the tracked object is (vacuously) in
        its initial type-state with an empty must-alias set."""
        return TsState.make([self.automaton.init], [])

    def is_event(self, command: AtomicCommand) -> bool:
        """Whether ``command`` drives the automaton for this instance.

        A call is an event when its method belongs to the automaton,
        its receiver may point to the tracked site, and — when
        ``event_labels`` is set — it originates from an event call
        site (the paper's "method call in application code")."""
        return (
            isinstance(command, Invoke)
            and self.automaton.is_event(command.method)
            and self.may_point(command.base)
            and (self.event_labels is None or command.site_label in self.event_labels)
        )

    def transfer(self, command: AtomicCommand, p: FrozenSet[str], d):
        return self.semantics.transfer(command, p, d)
