"""Bitset codec for the thread-escape domain.

Layout: one one-hot three-bit group (``L``/``E``/``N``) per schema
name, locals first then fields, matching ``EscSchema.names`` order.
The domain is total over the schema, so there are no outside-layout
locations to default; any write outside the schema falls back to the
interpreted step (which raises the same ``KeyError`` the schema would).
"""

from __future__ import annotations

from repro.core.semantics import Updates
from repro.dataflow.bitset import BitsetLayout, StateCodec, onehot_group
from repro.escape.analysis import Esc
from repro.escape.domain import VALUES, EscSchema, EscState

__all__ = ["EscapeCodec"]

#: A group's value by its code written as one octal digit.
_BY_DIGIT = {str(1 << index): value for index, value in enumerate(VALUES)}


class EscapeCodec(StateCodec):
    """Encodes ``EscState`` over a fixed schema.

    Decoded states are built on the codec's own schema object —
    ``EscState`` equality requires schema identity, so the codec must
    be constructed with the *client's* schema.
    """

    __slots__ = ("schema", "_value_bits", "_width")

    def __init__(self, schema: EscSchema):
        specs = [onehot_group(("var", name), VALUES) for name in schema.locals]
        specs.extend(
            onehot_group(("field", name), VALUES) for name in schema.fields
        )
        super().__init__(BitsetLayout(specs))
        self.schema = schema
        # Per-name value -> absolute-bit tables, in schema.names order.
        self._value_bits = tuple(
            {value: group.value_bits(value) for value in VALUES}
            for group in self.layout.groups
        )
        self._width = len(self.layout.groups)

    def encode_state(self, state: EscState) -> int:
        bits = 0
        for table, value in zip(self._value_bits, state.values):
            bits |= table[value]
        return bits

    def decode_state(self, bits: int) -> EscState:
        # Every group is three bits wide at a multiple of three, so the
        # word's octal digits, lowest first, are the groups' codes.
        width = self._width
        digits = format(bits, "o").zfill(width)[::-1] if bits else "0" * width
        try:
            values = tuple(map(_BY_DIGIT.__getitem__, digits))
        except KeyError:
            values = ()
        if len(values) != width:
            raise ValueError(f"non-canonical escape state bits {bits:#x}")
        return EscState(self.schema, values)

    def safe_effect(self, effect, binding, p) -> bool:
        if isinstance(effect, Esc):
            return True
        if isinstance(effect, Updates):
            return all(location in self.layout for location, _ in effect.writes)
        return False
