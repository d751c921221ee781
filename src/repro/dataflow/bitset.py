"""Integer-bitset encodings of finite abstract domains.

The compiled forward engine (``repro.core.kernel``) runs the collecting
worklist over plain Python integers instead of client state objects:
each abstract state is packed into a bitset over an interned *value
universe*, and every guarded-update transfer becomes a handful of mask
operations on that integer.  This module is the encoding layer — it
knows nothing about commands or guards, only about laying out a
client's state components as bit groups and converting states to and
from integers.

A :class:`BitsetLayout` is an ordered sequence of :class:`Group`\\ s,
one per addressable *location* of the client's
:class:`~repro.core.semantics.SemanticsBinding`:

* a **bool** group is a single bit (``("err",)``, ``("var", "x")``,
  ``("has", "x", "h1")`` ...);
* a **onehot** group is one bit per value of an exclusive-value domain
  (the escape lattice's ``L``/``E``/``N``), with the invariant that
  exactly one bit of the group is set in any canonical state.

Clients supply a :class:`StateCodec` subclass that maps their native
states onto a layout; the kernel only ever talks to the codec through
``encode``/``decode`` and the lowering hooks (:meth:`StateCodec.
missing_read`, :meth:`StateCodec.safe_effect`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "BOOL",
    "ONEHOT",
    "Group",
    "BitsetLayout",
    "KernelFallback",
    "StateCodec",
    "bool_group",
    "onehot_group",
]

BOOL = "bool"
ONEHOT = "onehot"


class KernelFallback(Exception):
    """Raised while lowering a command whose guard or effect cannot be
    expressed as bitset operations; the kernel then falls back to the
    interpreted step for that one command (the rest of the table still
    runs compiled)."""


def bool_group(location: object) -> Tuple[object, str, Tuple[object, ...]]:
    """Spec for a single-bit location holding ``False``/``True``."""
    return (location, BOOL, (False, True))


def onehot_group(
    location: object, values: Iterable[object]
) -> Tuple[object, str, Tuple[object, ...]]:
    """Spec for an exclusive-value location: one bit per value."""
    return (location, ONEHOT, tuple(values))


class Group:
    """One location's slice of the bitset.

    ``shift`` is the bit offset of the group within the word; ``mask``
    is the absolute mask covering the group; ``local_mask`` is the same
    mask before shifting (``mask == local_mask << shift``).
    """

    __slots__ = ("location", "style", "values", "shift", "width",
                 "mask", "local_mask", "_index")

    def __init__(self, location, style, values, shift):
        if style not in (BOOL, ONEHOT):
            raise ValueError(f"unknown group style: {style!r}")
        self.location = location
        self.style = style
        self.values = tuple(values)
        self.shift = shift
        self.width = 1 if style == BOOL else len(self.values)
        if self.width < 1:
            raise ValueError(f"empty value set for group {location!r}")
        self.local_mask = (1 << self.width) - 1
        self.mask = self.local_mask << shift
        self._index = (
            None
            if style == BOOL
            else {value: i for i, value in enumerate(self.values)}
        )

    def domain(self) -> Tuple[object, ...]:
        """Every value the group can hold (``(False, True)`` for bool)."""
        return self.values

    def value_bits(self, value: object) -> int:
        """The group's (absolute) bit pattern for ``value``.

        Raises :class:`KernelFallback` for a value outside the group's
        domain, so effect lowering degrades to the interpreted step
        instead of silently mis-encoding.
        """
        if self.style == BOOL:
            return (1 << self.shift) if value else 0
        index = self._index.get(value)
        if index is None:
            raise KernelFallback(
                f"value {value!r} outside domain of group {self.location!r}"
            )
        return 1 << (self.shift + index)

    def test_bit(self, value: object) -> Tuple[int, bool]:
        """``(mask, expect_set)`` such that ``location == value`` holds
        iff ``bool(state & mask) == expect_set``.

        For a bool group asserting ``False`` the test is "bit clear";
        every other assertion is "bit set" on the value's own bit.
        """
        if self.style == BOOL:
            return (1 << self.shift), bool(value)
        return self.value_bits(value), True

    def decode(self, word: int) -> object:
        """Read the group's value out of an encoded state."""
        local = (word >> self.shift) & self.local_mask
        if self.style == BOOL:
            return bool(local)
        if local.bit_count() != 1:
            raise ValueError(
                f"non-canonical bits {local:#x} in onehot group "
                f"{self.location!r}"
            )
        return self.values[local.bit_length() - 1]

    def __repr__(self) -> str:
        return (
            f"Group({self.location!r}, {self.style}, shift={self.shift}, "
            f"width={self.width})"
        )


class BitsetLayout:
    """An ordered packing of groups into one integer word."""

    __slots__ = ("groups", "total_bits", "full_mask", "_by_location")

    def __init__(self, specs: Iterable[Tuple[object, str, Tuple]]):
        groups: List[Group] = []
        by_location: Dict[object, Group] = {}
        shift = 0
        for location, style, values in specs:
            if location in by_location:
                raise ValueError(f"duplicate layout location: {location!r}")
            group = Group(location, style, values, shift)
            groups.append(group)
            by_location[location] = group
            shift += group.width
        self.groups = tuple(groups)
        self.total_bits = shift
        self.full_mask = (1 << shift) - 1
        self._by_location = by_location

    def group(self, location: object) -> Optional[Group]:
        """The group at ``location``, or ``None`` when the location is
        outside the layout (the codec decides what that means)."""
        return self._by_location.get(location)

    def __contains__(self, location: object) -> bool:
        return location in self._by_location

    def __len__(self) -> int:
        return len(self.groups)


class StateCodec:
    """Maps a client's native abstract states onto a bitset layout.

    Subclasses implement :meth:`encode_state` / :meth:`decode_state`;
    both directions are memoised here because the same handful of
    states flows through the worklist thousands of times.  The two
    memos double as each other's inverse check: whatever ``encode``
    interns, ``decode`` reuses the *same* state object, so decoded
    states are reference-identical across a run.
    """

    __slots__ = ("layout", "lowered", "_encode_memo", "_decode_memo")

    def __init__(self, layout: BitsetLayout):
        self.layout = layout
        #: Effects without parameter primitives, lowered once per codec
        #: by the compiled kernel (``repro.core.kernel``).
        self.lowered: Dict[object, object] = {}
        self._encode_memo: Dict[object, int] = {}
        self._decode_memo: Dict[int, object] = {}

    # -- the two hot-path entry points ---------------------------------

    def encode(self, state: object) -> int:
        bits = self._encode_memo.get(state)
        if bits is None:
            bits = self._encode_memo[state] = self.encode_state(state)
            self._decode_memo.setdefault(bits, state)
        return bits

    def decode(self, bits: int) -> object:
        state = self._decode_memo.get(bits)
        if state is None:
            state = self._decode_memo[bits] = self.decode_state(bits)
            self._encode_memo.setdefault(state, bits)
        return state

    # -- client hooks --------------------------------------------------

    def encode_state(self, state: object) -> int:
        raise NotImplementedError

    def decode_state(self, bits: int) -> object:
        raise NotImplementedError

    def missing_read(self, location: object) -> object:
        """The constant value stored at a location *outside* the
        layout, for clients whose states are sparse (the typestate
        domain stores only true bits).  The default refuses, sending
        the command to the interpreted fallback."""
        raise KernelFallback(f"read of location outside layout: {location!r}")

    def safe_effect(self, effect: object, binding: object, p: object) -> bool:
        """Whether every write of ``effect`` lands inside the layout
        (or provably writes the :meth:`missing_read` default outside
        it) under abstraction ``p``.  Anything unproven must return
        ``False`` — the kernel then falls back per-command rather than
        silently dropping a write."""
        return False
