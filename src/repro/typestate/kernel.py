"""Bitset codec for the type-state domain.

Layout: one ``("err",)`` bit (set exactly on ``TOP``, which encodes as
the error bit alone), one bit per automaton state for type-state
membership, and one bit per variable of the *parameter universe* for
must-alias membership.  The must-alias set is always a subset of the
universe — ``Restart`` intersects with ``p`` and ``Assign`` guards on
``TsParam(lhs)``, and ``p`` ranges over subsets of the universe — so
variables outside the layout provably read ``False``
(:meth:`TypestateCodec.missing_read`) and writes to them are safe
exactly when they provably store ``False`` under the bound abstraction.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.core.semantics import BoolExpr, Const, Updates
from repro.dataflow.bitset import (
    BitsetLayout,
    KernelFallback,
    StateCodec,
    bool_group,
)
from repro.typestate.analysis import GoTop, Restart
from repro.typestate.automaton import TypestateAutomaton
from repro.typestate.domain import TOP, TsState, TsTop

__all__ = ["TypestateCodec"]


class TypestateCodec(StateCodec):
    """Encodes ``TsState``/``TOP`` over a fixed automaton + universe."""

    __slots__ = ("_err_bit", "_type_bit", "_var_bit")

    def __init__(self, automaton: TypestateAutomaton, universe: Iterable[str]):
        states = tuple(sorted(automaton.states))
        variables = tuple(sorted(universe))
        specs = [bool_group(("err",))]
        specs.extend(bool_group(("type", s)) for s in states)
        specs.extend(bool_group(("var", v)) for v in variables)
        super().__init__(BitsetLayout(specs))
        layout = self.layout
        self._err_bit = layout.group(("err",)).mask
        self._type_bit = {s: layout.group(("type", s)).mask for s in states}
        self._var_bit = {v: layout.group(("var", v)).mask for v in variables}

    def encode_state(self, state) -> int:
        if isinstance(state, TsTop):
            return self._err_bit
        bits = 0
        type_bit = self._type_bit
        for s in state.ts:
            bits |= type_bit[s]  # KeyError: state outside the automaton
        var_bit = self._var_bit
        for v in state.vs:
            bits |= var_bit[v]  # KeyError: alias outside the universe
        return bits

    def decode_state(self, bits: int):
        if bits & self._err_bit:
            return TOP
        ts = frozenset(s for s, bit in self._type_bit.items() if bits & bit)
        vs = frozenset(v for v, bit in self._var_bit.items() if bits & bit)
        return TsState(ts, vs)

    def missing_read(self, location):
        if location[0] == "var":
            # Must-alias sets stay inside the parameter universe.
            return False
        raise KernelFallback(f"read of location outside layout: {location!r}")

    def safe_effect(self, effect, binding, p: FrozenSet[str]) -> bool:
        if isinstance(effect, GoTop):
            return True
        if isinstance(effect, Restart):
            # The only outside-layout write is ``("var", lhs)``; it
            # stores ``lhs in p``, which is False for any variable the
            # universe (and hence ``p``) does not contain.
            return ("var", effect.lhs) in self.layout or effect.lhs not in p
        if isinstance(effect, Updates):
            for location, expr in effect.writes:
                if location in self.layout:
                    continue
                if location[0] != "var":
                    return False
                if isinstance(expr, Const) and not expr.value:
                    continue
                if (
                    isinstance(expr, BoolExpr)
                    and binding.bind_formula(expr.formula, p) is False
                ):
                    continue
                return False
            return True
        return False
