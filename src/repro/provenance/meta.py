"""Backward meta-analysis for the provenance analysis.

Primitive formulas over pairs ``(p, d)``:

* ``PtParam(h)`` — site ``h`` is tracked (``h in p``);
* ``PtTop(v)``   — ``d(v) = TOP``;
* ``PtHas(v, h)`` — ``d(v) != TOP`` and ``h in d(v)``.

``PtTop`` and ``PtHas`` on the same variable are mutually exclusive,
which the theory exploits exactly as the type-state theory does for
``err`` vs ``var``/``type``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.formula import Literal, Primitive
from repro.core.meta import SemanticsMeta
from repro.core.viability import ParamTheory
from repro.provenance.domain import PT_TOP, PtState


@dataclass(frozen=True)
class PtParam(Primitive):
    """``h in p``."""

    site: str

    def __str__(self) -> str:
        return f"tracked({self.site})"


@dataclass(frozen=True)
class PtTop(Primitive):
    """``d(v) = TOP``."""

    var: str

    def __str__(self) -> str:
        return f"{self.var}.top"


@dataclass(frozen=True)
class PtHas(Primitive):
    """``d(v) != TOP`` and ``h in d(v)``."""

    var: str
    site: str

    def __str__(self) -> str:
        return f"{self.site} in {self.var}"


class ProvenanceTheory(ParamTheory):
    """Semantics of the provenance primitives; cube normalisation
    follows from :meth:`lit_entails`."""

    def holds(self, prim: Primitive, p, d: PtState) -> bool:
        if isinstance(prim, PtParam):
            return prim.site in p
        if isinstance(prim, PtTop):
            return d.get(prim.var) is PT_TOP
        if isinstance(prim, PtHas):
            value = d.get(prim.var)
            return value is not PT_TOP and prim.site in value
        raise TypeError(f"not a provenance primitive: {prim!r}")

    def is_param(self, prim: Primitive) -> bool:
        return isinstance(prim, PtParam)

    def param_var(self, prim: Primitive) -> Tuple[str, bool]:
        assert isinstance(prim, PtParam)
        return (prim.site, True)

    def lit_entails(self, a: Literal, b: Literal) -> bool:
        if a == b:
            return True
        if a.positive and isinstance(a.prim, PtHas):
            if (
                not b.positive
                and isinstance(b.prim, PtTop)
                and b.prim.var == a.prim.var
            ):
                return True
        if a.positive and isinstance(a.prim, PtTop):
            if (
                not b.positive
                and isinstance(b.prim, PtHas)
                and b.prim.var == a.prim.var
            ):
                return True
        return False


class ProvenanceMeta(SemanticsMeta):
    """Weakest preconditions on provenance primitives, derived from
    the forward case tables (requirement (2) by construction)."""

    metrics_name = "provenance"
