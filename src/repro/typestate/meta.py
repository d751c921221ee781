"""Backward meta-analysis for the type-state analysis (Figures 9, 10).

Primitive formulas over pairs ``(p, d)``:

* ``TsErr``      — ``d = TOP``;
* ``TsParam(x)`` — ``x in p`` (a parameter primitive);
* ``TsVar(x)``   — ``d = (ts, vs)`` and ``x in vs``;
* ``TsType(s)``  — ``d = (ts, vs)`` and ``s in ts``.

The Figure 10 weakest preconditions are no longer transcribed here:
the forward case tables in :mod:`repro.typestate.analysis` are the
single source of truth and :class:`TypestateMeta` delegates to the
generic guard-by-guard derivation of :mod:`repro.core.semantics`.
For a uniform automaton (``strong = weak``) the derived formulas
canonicalise to the figure exactly — e.g. for an event ``x.m()``::

    wp(err)    = err | \\/ {type(s) | [[m]](s) = TOP}
    wp(var(z)) = var(z) & /\\ {!type(s) | [[m]](s) = TOP}

— and every derivation is property-tested against a brute-force
weakest precondition (requirement (2) of Section 4) in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.formula import Literal, Primitive
from repro.core.meta import SemanticsMeta
from repro.core.viability import ParamTheory
from repro.typestate.domain import TsState, TsTop


@dataclass(frozen=True)
class TsErr(Primitive):
    """``d = TOP``."""

    def __str__(self) -> str:
        return "err"


@dataclass(frozen=True)
class TsParam(Primitive):
    """``x in p``."""

    var: str

    def __str__(self) -> str:
        return f"param({self.var})"


@dataclass(frozen=True)
class TsVar(Primitive):
    """``x in vs`` (implies ``d != TOP``)."""

    var: str

    def __str__(self) -> str:
        return f"var({self.var})"


@dataclass(frozen=True)
class TsType(Primitive):
    """``s in ts`` (implies ``d != TOP``)."""

    state: str

    def __str__(self) -> str:
        return f"type({self.state})"


ERR = TsErr()


class TypestateTheory(ParamTheory):
    """Semantics of the type-state primitives (Figure 9).

    Beyond literal equality, the theory knows that positive ``var``
    and ``type`` primitives exclude ``TOP`` while ``err`` asserts it;
    cube normalisation follows from :meth:`lit_entails`.
    """

    def holds(self, prim: Primitive, p, d) -> bool:
        if isinstance(prim, TsErr):
            return isinstance(d, TsTop)
        if isinstance(prim, TsParam):
            return prim.var in p
        if isinstance(prim, TsVar):
            return isinstance(d, TsState) and prim.var in d.vs
        if isinstance(prim, TsType):
            return isinstance(d, TsState) and prim.state in d.ts
        raise TypeError(f"not a type-state primitive: {prim!r}")

    def is_param(self, prim: Primitive) -> bool:
        return isinstance(prim, TsParam)

    def param_var(self, prim: Primitive) -> Tuple[str, bool]:
        assert isinstance(prim, TsParam)
        return (prim.var, True)

    def lit_entails(self, a: Literal, b: Literal) -> bool:
        if a == b:
            return True
        # var(x)+ and type(s)+ entail !err; err+ entails !var, !type.
        if a.positive and isinstance(a.prim, (TsVar, TsType)):
            if not b.positive and isinstance(b.prim, TsErr):
                return True
        if a.positive and isinstance(a.prim, TsErr):
            if not b.positive and isinstance(b.prim, (TsVar, TsType)):
                return True
        return False


class TypestateMeta(SemanticsMeta):
    """Backward weakest preconditions on primitives (Figure 10),
    derived from the forward case tables (requirement (2) by
    construction)."""

    metrics_name = "typestate"
