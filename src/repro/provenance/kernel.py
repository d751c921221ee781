"""Bitset codec for the provenance domain.

Layout, per schema variable: one ``("top", v)`` bit plus one
``("has", v, h)`` bit per *tracked* site (the analysis's site
universe).  A canonical state never mixes the top bit with has bits —
``BindTop`` clears them — and site sets stay inside the universe:
``New`` at an untracked site folds to ``BindTop`` under every ``p``
(its ``PtParam`` guard can never hold), so those ``BindSites`` rows die
before effect lowering.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.core.semantics import Updates
from repro.dataflow.bitset import (
    BitsetLayout,
    KernelFallback,
    StateCodec,
    bool_group,
)
from repro.provenance.analysis import BindSites, BindTop, CopyVar
from repro.provenance.domain import PT_TOP, PtSchema, PtState

__all__ = ["ProvenanceCodec"]


class ProvenanceCodec(StateCodec):
    """Encodes ``PtState`` over a fixed schema + tracked-site universe.

    Decoded states are built on the codec's own schema object
    (``PtState`` equality requires schema identity) and use the
    ``PT_TOP`` singleton, so they are indistinguishable from
    interpreter-produced states.
    """

    __slots__ = ("schema", "_tracked", "_per_var")

    def __init__(self, schema: PtSchema, sites: Iterable[str]):
        tracked = tuple(sorted(set(sites)))
        specs = []
        for v in schema.variables:
            specs.append(bool_group(("top", v)))
            specs.extend(bool_group(("has", v, h)) for h in tracked)
        super().__init__(BitsetLayout(specs))
        self.schema = schema
        self._tracked = frozenset(tracked)
        layout = self.layout
        self._per_var = tuple(
            (
                layout.group(("top", v)).mask,
                tuple((h, layout.group(("has", v, h)).mask) for h in tracked),
            )
            for v in schema.variables
        )

    def encode_state(self, state: PtState) -> int:
        bits = 0
        for (top_bit, has_bits), value in zip(self._per_var, state.values):
            if value is PT_TOP:
                bits |= top_bit
            else:
                if value and not value <= self._tracked:
                    raise ValueError(
                        f"site set {sorted(value)} outside the tracked "
                        f"universe {sorted(self._tracked)}"
                    )
                for h, bit in has_bits:
                    if h in value:
                        bits |= bit
        return bits

    def decode_state(self, bits: int) -> PtState:
        values = []
        for top_bit, has_bits in self._per_var:
            if bits & top_bit:
                values.append(PT_TOP)
            else:
                values.append(
                    frozenset(h for h, bit in has_bits if bits & bit)
                )
        return PtState(self.schema, tuple(values))

    def missing_read(self, location):
        if location[0] == "has":
            # Encodable states keep site sets inside the tracked
            # universe, so an untracked has-bit always reads False.
            return False
        raise KernelFallback(f"read of location outside layout: {location!r}")

    def safe_effect(self, effect, binding, p: FrozenSet[str]) -> bool:
        if isinstance(effect, BindTop):
            return ("top", effect.lhs) in self.layout
        if isinstance(effect, CopyVar):
            return ("top", effect.lhs) in self.layout
        if isinstance(effect, BindSites):
            return (
                ("top", effect.lhs) in self.layout
                and effect.sites <= self._tracked
            )
        if isinstance(effect, Updates):
            return all(location in self.layout for location, _ in effect.writes)
        return False
