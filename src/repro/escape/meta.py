"""Backward meta-analysis for the thread-escape analysis (Figure 11).

Primitive formulas over pairs ``(p, d)``:

* ``SiteIs(h, o)`` with ``o in {L, E}`` — the abstraction maps ``h``
  to ``o`` (a parameter primitive, written ``h.o`` in the paper);
* ``VarIs(v, o)`` / ``FieldIs(f, o)`` with ``o in {L, E, N}`` — the
  state binds the local/field to ``o`` (``v.o`` / ``f.o``).

Weakest preconditions are no longer written here at all: the forward
case tables in :mod:`repro.escape.analysis` are the single source of
truth, and :class:`EscapeMeta` delegates to the generic guard-by-guard
derivation of :mod:`repro.core.semantics`.  The derived formulas are
semantically equal to Figure 11 (e.g. for ``g = v`` and a local
``u != v``::

    wp(u.E) = u.E | (v.L & u.L)
    wp(u.N) = u.N
    wp(f.N) = f.N | v.L

after DNF simplification) and are verified exhaustively against the
forward semantics in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.formula import ExclusiveValueTheory, Primitive
from repro.core.meta import SemanticsMeta
from repro.core.viability import ParamTheory
from repro.escape.domain import ESC, LOC, VALUES, EscState


@dataclass(frozen=True)
class SiteIs(Primitive):
    """``p(h) = o`` — written ``h.o`` in the paper."""

    site: str
    value: str

    def __str__(self) -> str:
        return f"{self.site}.{self.value}"


@dataclass(frozen=True)
class VarIs(Primitive):
    """``d(v) = o`` — written ``v.o`` in the paper."""

    var: str
    value: str

    def __str__(self) -> str:
        return f"{self.var}.{self.value}"


@dataclass(frozen=True)
class FieldIs(Primitive):
    """``d(f) = o`` — written ``f.o`` in the paper."""

    field: str
    value: str

    def __str__(self) -> str:
        return f"{self.field}.{self.value}"


class EscapeTheory(ExclusiveValueTheory, ParamTheory):
    """Semantics of the escape primitives.

    Every primitive belongs to an exhaustive exclusive-value group
    (one per site/local/field), which powers cube normalisation:
    ``v.L & v.E`` is false, ``!v.L & !v.E`` collapses to ``v.N``, etc.
    """

    def group_of(self, prim: Primitive):
        if isinstance(prim, SiteIs):
            return (("site", prim.site), prim.value, (LOC, ESC))
        if isinstance(prim, VarIs):
            return (("var", prim.var), prim.value, VALUES)
        if isinstance(prim, FieldIs):
            return (("field", prim.field), prim.value, VALUES)
        raise TypeError(f"not an escape primitive: {prim!r}")

    def make_primitive(self, group_key, value) -> Primitive:
        kind, name = group_key
        if kind == "site":
            return SiteIs(name, value)
        if kind == "var":
            return VarIs(name, value)
        return FieldIs(name, value)

    def holds(self, prim: Primitive, p, d: EscState) -> bool:
        if isinstance(prim, SiteIs):
            return (prim.site in p) == (prim.value == LOC)
        if isinstance(prim, VarIs):
            return d.get(prim.var) == prim.value
        if isinstance(prim, FieldIs):
            return d.get(prim.field) == prim.value
        raise TypeError(f"not an escape primitive: {prim!r}")

    def is_param(self, prim: Primitive) -> bool:
        return isinstance(prim, SiteIs)

    def param_var(self, prim: Primitive) -> Tuple[str, bool]:
        assert isinstance(prim, SiteIs)
        return (prim.site, prim.value == LOC)


class EscapeMeta(SemanticsMeta):
    """Backward weakest preconditions on escape primitives, derived
    from the forward case tables (requirement (2) by construction)."""

    metrics_name = "escape"
