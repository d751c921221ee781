"""Boolean formulas over analysis primitives, and the DNF machinery.

This module implements the formula domain ``M`` of a *disjunctive
meta-analysis* (Section 4.1 of the paper):

* formulas are built from client-declared :class:`Primitive` atoms with
  negation, conjunction, and disjunction;
* :func:`to_dnf` converts to disjunctive normal form, sorting disjuncts
  by syntactic size (``toDNF`` of Figure 8);
* :func:`simplify` removes disjuncts subsumed by earlier, shorter ones
  (``simplify`` of Figure 8);
* :func:`drop_k` is the beam under-approximation (``dropk`` of
  Figure 8): it keeps the ``k - 1`` smallest disjuncts plus the
  smallest disjunct containing the current ``(p, d)``, guaranteeing the
  current abstraction stays eliminated.

Meaning is given by a client :class:`Theory`, which evaluates
primitives on pairs ``(p, d)`` of abstraction and abstract state
(the ``gamma`` function of Section 4), decides which primitives depend
only on the abstraction component, and declares literal entailment,
from which the rewrites that keep cubes small (mutual exclusion,
redundancy) are derived.  All rewrites performed here except
``drop_k`` are semantics-preserving; ``drop_k`` only ever shrinks
``gamma``.

Internally each theory interns its literals into a
:class:`CubeUniverse` and every DNF operation runs on ``int`` bit-mask
cubes; :class:`Dnf` values hold ``frozenset`` cubes again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.lru import LruCache


class FormulaExplosion(RuntimeError):
    """Raised when DNF conversion exceeds the configured cube budget."""


class Primitive:
    """Base class for primitive formulas (``PForm`` in the paper).

    Subclasses should be frozen dataclasses.  ``sort_key`` induces the
    deterministic order used when sorting literals and cubes; the
    default key is derived from the dataclass fields.
    """

    __slots__ = ()

    def sort_key(self) -> Tuple:
        fields = getattr(self, "__dataclass_fields__", None)
        if fields is None:
            return (type(self).__name__, repr(self))
        return (type(self).__name__,) + tuple(
            str(getattr(self, name)) for name in fields
        )


class Literal:
    """A primitive or its negation.

    Implemented as a hash-caching value class: literals live in
    frozensets that are unioned, compared, and re-hashed constantly on
    the meta-analysis hot path, so the hash is computed once."""

    __slots__ = ("prim", "positive", "_hash")

    def __init__(self, prim: Primitive, positive: bool = True):
        self.prim = prim
        self.positive = positive
        self._hash = hash((prim, positive))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Literal)
            and self.positive == other.positive
            and self.prim == other.prim
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Literal({self.prim!r}, {self.positive})"

    def negate(self) -> "Literal":
        return Literal(self.prim, not self.positive)

    def sort_key(self) -> Tuple:
        return self.prim.sort_key() + (not self.positive,)

    def __str__(self) -> str:
        return str(self.prim) if self.positive else f"!{self.prim}"


Cube = FrozenSet[Literal]


def cube_sort_key(cube: Cube) -> Tuple:
    return (len(cube), tuple(sorted(lit.sort_key() for lit in cube)))


def pretty_cube(cube: Cube) -> str:
    if not cube:
        return "true"
    return " & ".join(str(l) for l in sorted(cube, key=Literal.sort_key))


# ---------------------------------------------------------------------------
# Formula AST (negation-normal-form friendly)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Top:
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class Bottom:
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Lit:
    literal: Literal

    def __str__(self) -> str:
        return str(self.literal)


@dataclass(frozen=True)
class And:
    args: Tuple["Formula", ...]

    def __str__(self) -> str:
        return "(" + " & ".join(str(a) for a in self.args) + ")"


@dataclass(frozen=True)
class Or:
    args: Tuple["Formula", ...]

    def __str__(self) -> str:
        return "(" + " | ".join(str(a) for a in self.args) + ")"


Formula = object  # Union[Top, Bottom, Lit, And, Or]

TRUE = Top()
FALSE = Bottom()


def lit(prim: Primitive) -> Formula:
    """The formula asserting ``prim``."""
    return Lit(Literal(prim, True))


def nlit(prim: Primitive) -> Formula:
    """The formula asserting the negation of ``prim``."""
    return Lit(Literal(prim, False))


def conj(*args: Formula) -> Formula:
    """Smart conjunction: flattens, drops ``true``, absorbs ``false``."""
    flat: List[Formula] = []
    for arg in args:
        if isinstance(arg, Bottom):
            return FALSE
        if isinstance(arg, Top):
            continue
        if isinstance(arg, And):
            flat.extend(arg.args)
        else:
            flat.append(arg)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*args: Formula) -> Formula:
    """Smart disjunction: flattens, drops ``false``, absorbs ``true``."""
    flat: List[Formula] = []
    for arg in args:
        if isinstance(arg, Top):
            return TRUE
        if isinstance(arg, Bottom):
            continue
        if isinstance(arg, Or):
            flat.extend(arg.args)
        else:
            flat.append(arg)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(formula: Formula) -> Formula:
    """Negation, pushed to the literals (classical duality)."""
    if isinstance(formula, Top):
        return FALSE
    if isinstance(formula, Bottom):
        return TRUE
    if isinstance(formula, Lit):
        return Lit(formula.literal.negate())
    if isinstance(formula, And):
        return disj(*(neg(a) for a in formula.args))
    if isinstance(formula, Or):
        return conj(*(neg(a) for a in formula.args))
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Theories
# ---------------------------------------------------------------------------


class Theory:
    """Client-supplied semantics of primitives.

    The base implementation knows nothing about the primitives beyond
    syntactic identity; clients override the hooks to plug in domain
    knowledge.  Entailment between literals (:meth:`lit_entails`, plus
    the value groups of an :class:`ExclusiveValueTheory`) is all the
    DNF machinery needs: :class:`CubeUniverse` compiles it into bit
    masks once per literal, which keeps the cubes the meta-analysis
    manipulates small and canonical.
    """

    def holds(self, prim: Primitive, p: object, d: object) -> bool:
        """Whether ``(p, d)`` is in ``gamma(prim)``."""
        raise NotImplementedError

    def is_param(self, prim: Primitive) -> bool:
        """Whether ``gamma(prim)`` depends only on the abstraction ``p``."""
        raise NotImplementedError

    def lit_entails(self, a: Literal, b: Literal) -> bool:
        """Whether ``gamma(a) <= gamma(b)``.  Must be sound; syntactic
        equality is the (complete-enough per Figure 9) default.

        This hook defines cube normalisation and subsumption: a cube
        holding a literal that entails the negation of another is
        ``false``, and a literal entailed by another literal of its cube
        is redundant.  It is asked once per ordered pair of literals the
        theory's :class:`CubeUniverse` interns."""
        return a == b

    def literals_exhaust(self, literals: FrozenSet[Literal]) -> bool:
        """Whether the disjunction of ``literals`` covers every pair,
        i.e. ``union of gamma(l) = P x D``.  Used by :func:`merge_cubes`
        to drop a literal whose siblings enumerate all cases.  The
        default recognises complementary pairs; exclusive-value
        theories also recognise a full positive value sweep."""
        return any(l.negate() in literals for l in literals)

    def normalize_cube(self, literals: Cube) -> Optional[Cube]:
        """Semantics-preserving canonicalisation of a conjunction, or
        ``None`` when it is unsatisfiable.  Derived from
        :meth:`lit_entails` (and the exclusive-value groups); see
        :class:`CubeUniverse` for the rules."""
        universe = self.universe()
        mask = universe.normalize(universe.lower(literals))
        return None if mask is None else universe.lift(mask)

    def universe(self) -> "CubeUniverse":
        """The theory's interned literal universe, created on first use."""
        universe = getattr(self, "_universe", None)
        if universe is None:
            universe = self._universe = CubeUniverse(self)
        return universe


class ExclusiveValueTheory(Theory):
    """A theory whose primitives assert ``location = value`` facts.

    Many dataflow abstract domains (including the thread-escape domain
    of Figure 5) map each *location* to exactly one of a small set of
    *values*.  Primitives then come in exhaustive, mutually exclusive
    groups: one per location, one primitive per value.  Subclasses
    provide :meth:`group_of` and :meth:`make_primitive`; this class
    derives cube normalisation from them:

    * ``loc = v`` entails ``loc != w`` for every other value ``w``
      (:meth:`lit_entails`), so two distinct positive values for one
      location are ``false`` and a positive value makes the negative
      literals of its group redundant;
    * all-but-one value negated is replaced by the remaining positive,
      and all values negated is ``false`` (the value sweep
      :class:`CubeUniverse` applies to each group).

    A subclass that refines :meth:`lit_entails` may relate literals of
    one group only: the universe never asks about other pairs.
    """

    def group_of(self, prim: Primitive) -> Optional[Tuple[object, object, Tuple]]:
        """Return ``(group_key, value, all_values)`` or ``None``."""
        raise NotImplementedError

    def make_primitive(self, group_key: object, value: object) -> Primitive:
        """Build the primitive asserting ``group_key = value``."""
        raise NotImplementedError

    def lit_entails(self, a: Literal, b: Literal) -> bool:
        if a == b:
            return True
        if not a.positive or b.positive:
            return False
        # Same exclusive group: `loc = v` entails `loc != w` for w != v.
        ga = self.group_of(a.prim)
        gb = self.group_of(b.prim)
        return ga is not None and gb is not None and ga[0] == gb[0] and ga[1] != gb[1]

    def literals_exhaust(self, literals: FrozenSet[Literal]) -> bool:
        if super().literals_exhaust(literals):
            return True
        by_group: Dict[object, set] = {}
        values_of: Dict[object, Tuple] = {}
        for l in literals:
            if not l.positive:
                continue
            info = self.group_of(l.prim)
            if info is None:
                continue
            key, value, all_values = info
            by_group.setdefault(key, set()).add(value)
            values_of[key] = all_values
        return any(
            by_group[key] >= set(values_of[key]) for key in by_group
        )


# ---------------------------------------------------------------------------
# Interned cube algebra
# ---------------------------------------------------------------------------

#: Per-cube summary carried beside a normalised mask: the OR, over the
#: cube's literals, of their ``conflicts``, ``drops``, ``sweeps`` and
#: ``entails`` masks (see :class:`CubeUniverse`).
Info = Tuple[int, int, int, int]

#: The cube of no literals (``true``) and its info.
_TRUE_INFO: Info = (0, 0, 0, 0)

#: Bound on each universe's mask -> frozenset lifting memo.
_LIFTED_CUBES = 1 << 14


def mask_bits(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_budget(count: int, max_cubes: Optional[int]) -> None:
    if max_cubes is not None and count > max_cubes:
        raise FormulaExplosion(
            f"DNF conversion produced {count} cubes (budget {max_cubes})"
        )


class CubeUniverse:
    """One theory's literals interned as bit positions, with cubes as
    ``int`` masks over them.

    The ``n``-th primitive interned owns bit ``2n`` for its positive and
    bit ``2n + 1`` for its negative literal, so ``bit ^ 1`` is the
    complement.  An :class:`ExclusiveValueTheory` interns a primitive's
    whole value group at once.  The theory's hooks are asked once per
    pair of interned literals and kept as four masks per bit ``i``:

    * ``entails[i]``: the other literals that literal ``i`` entails
      (:meth:`Theory.lit_entails`);
    * ``drops[i]``: the literals a cube holding ``i`` drops as
      redundant: ``entails[i]`` minus any literal interned before ``i``
      that entails ``i`` back, so one of two equivalent literals stays;
    * ``conflicts[i]``: the literals ``j`` that cannot hold with ``i``:
      ``i`` entails ``not j``, or ``j`` entails ``not i``;
    * ``sweeps[i]``: for the negative literal of a value group, the
      negative literals of the whole group (0 otherwise).

    Normalising a cube is then: ``None`` if it holds a conflicting
    pair; drop every literal another literal entails; and in each value
    group whose negatives exclude every value return ``None``, or,
    when they exclude all values but one, replace them by that value's
    positive literal.  This rule is confluent, so conjoining two
    normalised cubes (:meth:`conjoin`) needs only the two masks and
    their :data:`Info`: an OR, a conflict test, a drop mask and a sweep
    of the value groups both cubes constrain.  Cubes become
    ``frozenset`` again only through :meth:`lift`.
    """

    def __init__(self, theory: Theory):
        self.theory = theory
        self.bit: Dict[Literal, int] = {}
        self.literals: List[Literal] = []
        self.entails: List[int] = []
        self.drops: List[int] = []
        self.conflicts: List[int] = []
        self.sweeps: List[int] = []
        self._keys: List[Tuple] = []
        #: Dense rank of each literal's sort key; rebuilt after interning.
        self._ranks: Optional[List[int]] = None
        #: Bumped when interning relates a new literal to an old one, so
        #: that :data:`Info` computed before then is out of date (never,
        #: for an exclusive-value theory).
        self.epoch = 0
        #: bit -> DNF of that one literal, valid for ``_units_epoch``.
        self._units: Dict[int, Dict[int, Info]] = {}
        self._units_epoch = 0
        self._lifted = LruCache(_LIFTED_CUBES)

    # -- interning ----------------------------------------------------------

    def bit_of(self, literal: Literal) -> int:
        bit = self.bit.get(literal)
        if bit is None:
            self._intern(literal.prim)
            bit = self.bit[literal]
        return bit

    def lower(self, cube: Iterable[Literal]) -> int:
        mask = 0
        for literal in cube:
            mask |= 1 << self.bit_of(literal)
        return mask

    def _intern(self, prim: Primitive) -> None:
        prims = [prim]
        grouped = False
        theory = self.theory
        if isinstance(theory, ExclusiveValueTheory):
            group = theory.group_of(prim)
            if group is not None:
                key, _value, values = group
                members = [theory.make_primitive(key, value) for value in values]
                grouped = prim in members and not any(
                    Literal(member, True) in self.bit for member in members
                )
                if grouped:
                    prims = members
        start = len(self.literals)
        for member in prims:
            for positive in (True, False):
                literal = Literal(member, positive)
                self.bit[literal] = len(self.literals)
                self.literals.append(literal)
                self._keys.append(literal.sort_key())
                self.entails.append(0)
                self.drops.append(0)
                self.conflicts.append(0)
                self.sweeps.append(0)
        self._ranks = None
        if grouped:
            negatives = range(start + 1, len(self.literals), 2)
            group_mask = sum(1 << bit for bit in negatives)
            for bit in negatives:
                self.sweeps[bit] = group_mask
        self._relate(start)

    def _relate(self, start: int) -> None:
        """Ask ``lit_entails`` about every pair involving a literal
        numbered ``start`` or above, and update the masks.

        An exclusive-value theory relates the literals of one group
        only and interns each group at once, so for one the new
        literals are paired only with each other."""
        lit_entails = self.theory.lit_entails
        literals = self.literals
        first = start if isinstance(self.theory, ExclusiveValueTheory) else 0
        edges = []
        for i in range(start, len(literals)):
            a = literals[i]
            for j in range(first, len(literals)):
                if i == j:
                    continue
                b = literals[j]
                if lit_entails(a, b):
                    edges.append((i, j))
                if j < start and lit_entails(b, a):
                    edges.append((j, i))
        entails, drops, conflicts = self.entails, self.drops, self.conflicts
        for i, j in edges:
            entails[i] |= 1 << j
        for i, j in edges:
            # `i` entails `j` = not (j ^ 1): the two cannot hold together.
            conflicts[i] |= 1 << (j ^ 1)
            conflicts[j ^ 1] |= 1 << i
            if not (entails[j] >> i & 1 and j < i):
                drops[i] |= 1 << j
        for i in range(start, len(literals)):
            conflicts[i] |= 1 << (i ^ 1)
        if any(i < start or j < start for i, j in edges):
            self.epoch += 1

    def _rank(self) -> List[int]:
        ranks = self._ranks
        if ranks is None:
            order = {key: n for n, key in enumerate(sorted(set(self._keys)))}
            ranks = self._ranks = [order[key] for key in self._keys]
        return ranks

    # -- cubes --------------------------------------------------------------

    def info(self, mask: int) -> Info:
        conflicts = drops = sweeps = entails = 0
        for bit in mask_bits(mask):
            conflicts |= self.conflicts[bit]
            drops |= self.drops[bit]
            sweeps |= self.sweeps[bit]
            entails |= self.entails[bit]
        return (conflicts, drops, sweeps, entails)

    def unit(self, bit: int) -> Dict[int, Info]:
        """The DNF of the single literal ``bit`` (shared: do not mutate)."""
        if self._units_epoch != self.epoch:
            self._units = {}
            self._units_epoch = self.epoch
        dnf = self._units.get(bit)
        if dnf is None:
            mask = self.normalize(1 << bit)
            dnf = self._units[bit] = {} if mask is None else {mask: self.info(mask)}
        return dnf

    def normalize(self, mask: int) -> Optional[int]:
        """The normal form of the cube ``mask``, or ``None`` if it is
        unsatisfiable."""
        conflicts, drops, sweeps, _entails = self.info(mask)
        if mask & conflicts:
            return None
        mask &= ~drops
        if sweeps:
            swept = self._sweep(mask, sweeps)
            if swept != mask:
                # A swept-in positive literal may entail or contradict
                # literals outside its group.
                return None if swept is None else self.normalize(swept)
        return mask

    def _sweep(self, mask: int, groups: int) -> Optional[int]:
        """Apply the value sweep to the groups whose negatives ``groups``
        covers."""
        sweeps = self.sweeps
        while groups:
            low = groups & -groups
            group = sweeps[low.bit_length() - 1]
            groups &= ~group
            negatives = mask & group
            if not negatives:
                continue
            if negatives == group:
                return None
            missing = group & ~negatives
            if not missing & (missing - 1):
                # One value left: its positive literal is the bit below
                # its negative one.
                mask = (mask & ~group) | (missing >> 1)
        return mask

    def conjoin(self, left: Dict[int, Info], right: Dict[int, Info]) -> Dict[int, Info]:
        """The DNF conjunction of two DNFs of normalised cubes."""
        out: Dict[int, Info] = {}
        right_items = list(right.items())
        for a, (ca, da, sa, ea) in left.items():
            for b, (cb, db, sb, eb) in right_items:
                if a & cb:
                    continue
                union = a | b
                mask = union & ~(da | db)
                if sa & sb:
                    swept = self._sweep(mask, sa & sb)
                    if swept != mask:
                        if swept is None:
                            continue
                        mask = self.normalize(swept)
                        if mask is None:
                            continue
                if mask in out:
                    continue
                if mask == union:
                    out[mask] = (ca | cb, da | db, sa | sb, ea | eb)
                else:
                    out[mask] = self.info(mask)
        return out

    def dnf(self, formula: Formula, max_cubes: Optional[int] = None) -> Tuple[Dict[int, Info], int]:
        """``formula`` in DNF, as normalised masks with their info, and
        the largest number of cubes live at any point of the conversion.

        Raises :class:`FormulaExplosion` as soon as that number exceeds
        ``max_cubes``.  Conjuncts are multiplied smallest DNF first, in
        an order the DNFs themselves fix, so neither the result nor the
        peak depends on the order of ``And``/``Or`` arguments."""
        # Interning first keeps every Info computed below up to date.
        self.intern(formula)
        peak = [0]
        cubes = self._dnf(formula, max_cubes, peak)
        return cubes, peak[0]

    def intern(self, formula: Formula) -> None:
        """Intern every literal of ``formula``.  Interning may move the
        :attr:`epoch`, so callers that compute :data:`Info` for several
        formulas intern them all first."""
        if isinstance(formula, Lit):
            self.bit_of(formula.literal)
        elif isinstance(formula, (And, Or)):
            for arg in formula.args:
                self.intern(arg)

    def _dnf(self, formula: Formula, max_cubes: Optional[int], peak: List[int]) -> Dict[int, Info]:
        if isinstance(formula, Lit):
            return self.unit(self.bit[formula.literal])
        if isinstance(formula, Top):
            return {0: _TRUE_INFO}
        if isinstance(formula, Bottom):
            return {}
        if isinstance(formula, Or):
            out: Dict[int, Info] = {}
            for arg in formula.args:
                out.update(self._dnf(arg, max_cubes, peak))
                peak[0] = max(peak[0], len(out))
                _check_budget(len(out), max_cubes)
            return out
        if isinstance(formula, And):
            parts = [self._dnf(arg, max_cubes, peak) for arg in formula.args]
            return self._product(parts, max_cubes, peak)
        raise TypeError(f"not a formula: {formula!r}")

    def _product(
        self, parts: List[Dict[int, Info]], max_cubes: Optional[int], peak: List[int]
    ) -> Dict[int, Info]:
        """The conjunction of the DNFs ``parts``, multiplied smallest
        first, in an order the DNFs themselves fix."""
        key = self._cube_key()
        # Parts of at most one cube never grow the product, so their
        # order among themselves does not matter.
        parts.sort(
            key=lambda part: (len(part), sorted(map(key, part)) if len(part) > 1 else [])
        )
        acc: Dict[int, Info] = {0: _TRUE_INFO}
        for part in parts:
            acc = self.conjoin(acc, part)
            peak[0] = max(peak[0], len(acc))
            _check_budget(len(acc), max_cubes)
        return acc

    def relower(
        self, cubes: Sequence[int], positive: bool, max_cubes: Optional[int] = None
    ) -> Tuple[Dict[int, Info], int]:
        """The sorted, simplified DNF ``cubes`` (``positive``) or its
        negation, and the peak: what :meth:`dnf` returns for the lifted
        formula (:meth:`Dnf.to_formula`) or its :func:`neg`, computed on
        the masks.

        The formula of several cubes is an ``Or`` whose live count grows
        to the cube count; one cube of several literals is an ``And``
        live at one cube; a literal, ``true`` and ``false`` count none.
        The negation turns each cube into a clause, the union of its
        negated literals' units, and multiplies the clauses as
        :meth:`dnf` multiplies conjuncts.  Raises
        :class:`FormulaExplosion` as :meth:`dnf` would."""
        if positive:
            if len(cubes) > 1:
                peak = len(cubes)
            elif cubes and cubes[0] & (cubes[0] - 1):
                peak = 1
            else:
                peak = 0
            _check_budget(peak, max_cubes)
            return {mask: self.info(mask) for mask in cubes}, peak
        if not cubes:
            return {0: _TRUE_INFO}, 0
        if not cubes[0]:
            return {}, 0
        peak = [0]
        parts = []
        for cube in cubes:
            bits = mask_bits(cube)
            if len(bits) == 1:
                parts.append(self.unit(bits[0] ^ 1))
                continue
            clause: Dict[int, Info] = {}
            for bit in bits:
                clause.update(self.unit(bit ^ 1))
                peak[0] = max(peak[0], len(clause))
                _check_budget(len(clause), max_cubes)
            parts.append(clause)
        if len(parts) == 1:
            return parts[0], peak[0]
        return self._product(parts, max_cubes, peak), peak[0]

    def substitute(
        self,
        cubes: Sequence[int],
        factors: Dict[int, Dict[int, Info]],
        max_cubes: Optional[int],
    ) -> Tuple[Dict[int, Info], int]:
        """The DNF of ``cubes`` with every literal ``bit`` of ``factors``
        replaced by the DNF ``factors[bit]``, and the largest number of
        cubes live in it at any point.

        Each cube starts from its other literals, normalised, and
        multiplies its factors in literal sort-key order.  Conjoining a
        single cube never grows a DNF, so no live count here exceeds
        the one of multiplying in every literal.  Raises
        :class:`FormulaExplosion` as soon as a live DNF exceeds
        ``max_cubes``."""
        ranks = self._rank()
        replaced = 0
        for bit in factors:
            replaced |= 1 << bit
        out: Dict[int, Info] = {}
        peak = 0
        for cube in cubes:
            rest = self.normalize(cube & ~replaced)
            if rest is None:
                continue
            acc: Dict[int, Info] = {rest: self.info(rest)}
            for bit in sorted(mask_bits(cube & replaced), key=ranks.__getitem__):
                acc = self.conjoin(acc, factors[bit])
                peak = max(peak, len(acc))
                _check_budget(len(acc), max_cubes)
                if not acc:
                    break
            out.update(acc)
            peak = max(peak, len(out))
            _check_budget(len(out), max_cubes)
        return out, peak

    def _cube_key(self) -> Callable[[int], Tuple]:
        """A sort key on masks ordering them as :func:`cube_sort_key`
        orders their lifted cubes."""
        ranks = self._rank()

        def key(mask: int) -> Tuple:
            bits = mask_bits(mask)
            return (len(bits), sorted([ranks[bit] for bit in bits]))

        return key

    def sort(self, masks: Iterable[int]) -> List[int]:
        return sorted(masks, key=self._cube_key())

    def simplify(self, ordered: Sequence[int], infos: Dict[int, Info]) -> List[int]:
        """``simplify`` of Figure 8 on masks: keep each cube that entails
        no kept earlier cube (a subset test against its closure)."""
        kept: List[int] = []
        for mask in ordered:
            closure = mask | infos[mask][3]
            for earlier in kept:
                if not earlier & ~closure:
                    break
            else:
                kept.append(mask)
        return kept

    def merge(self, ordered: List[int]) -> List[int]:
        """:func:`merge_cubes` on a sorted, simplified mask DNF.  A
        merge needs cubes sharing a rest whose other literals exhaust,
        which is rare, so the masks are only scanned for such a rest;
        the frozenset merge runs when one exists."""
        cubes = set(ordered)
        by_rest: Dict[int, int] = {}
        for mask in ordered:
            bits = mask
            while bits:
                low = bits & -bits
                bits ^= low
                rest = mask ^ low
                by_rest[rest] = by_rest.get(rest, 0) | low
        literals = self.literals
        exhaust = self.theory.literals_exhaust
        for rest, bits in by_rest.items():
            if (
                bits & (bits - 1)
                and rest not in cubes
                and exhaust(frozenset([literals[bit] for bit in mask_bits(bits)]))
            ):
                merged = merge_cubes(self.lift_dnf(ordered), self.theory)
                return [self.lower(cube) for cube in merged.cubes]
        return ordered

    def evaluator(self, p: object, d: object) -> Callable[[int], bool]:
        """Whether a cube holds at ``(p, d)``, asking the theory at most
        once per literal."""
        literals = self.literals
        holds = self.theory.holds
        truth: Dict[int, bool] = {}

        def contains(mask: int) -> bool:
            for bit in mask_bits(mask):
                value = truth.get(bit)
                if value is None:
                    literal = literals[bit]
                    value = truth[bit] = bool(holds(literal.prim, p, d)) == literal.positive
                if not value:
                    return False
            return True

        return contains

    # -- back to literals ---------------------------------------------------

    def lift(self, mask: int) -> Cube:
        cube = self._lifted.get(mask)
        if cube is None:
            literals = self.literals
            cube = frozenset([literals[bit] for bit in mask_bits(mask)])
            self._lifted.put(mask, cube)
        return cube

    def lift_dnf(self, ordered: Iterable[int]) -> "Dnf":
        return Dnf(tuple(self.lift(mask) for mask in ordered))


# ---------------------------------------------------------------------------
# DNF conversion and the Figure 8 operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dnf:
    """A formula in disjunctive normal form: a disjunction of cubes.

    Invariants: cubes are normalised by the theory that produced the
    Dnf, sorted by syntactic size (then deterministically), and the
    empty disjunction is ``false`` while a single empty cube is
    ``true``.
    """

    cubes: Tuple[Cube, ...]

    @property
    def is_false(self) -> bool:
        return not self.cubes

    @property
    def is_true(self) -> bool:
        return len(self.cubes) == 1 and not self.cubes[0]

    def __str__(self) -> str:
        if self.is_false:
            return "false"
        return " | ".join(f"({pretty_cube(c)})" for c in self.cubes)

    def to_formula(self) -> Formula:
        return disj(
            *(
                conj(*(Lit(l) for l in sorted(cube, key=Literal.sort_key)))
                for cube in self.cubes
            )
        )


def _sorted_cubes(cubes: Iterable[Cube]) -> Tuple[Cube, ...]:
    unique = sorted(set(cubes), key=cube_sort_key)
    return tuple(unique)


def to_dnf(
    formula: Formula, theory: Theory, max_cubes: Optional[int] = None
) -> Dnf:
    """Convert ``formula`` to DNF, normalising every cube via ``theory``.

    ``max_cubes`` bounds the number of cubes live at any point during
    the conversion; exceeding it raises :class:`FormulaExplosion`.
    The result's cubes are sorted by size, matching ``toDNF`` of
    Figure 8.  The conversion runs on the theory's
    :class:`CubeUniverse`.
    """
    universe = theory.universe()
    cubes, _peak = universe.dnf(formula, max_cubes)
    return universe.lift_dnf(universe.sort(cubes))


def cube_entails(stronger: Cube, weaker: Cube, theory: Theory) -> bool:
    """Whether ``gamma(stronger) <= gamma(weaker)`` (cube subsumption).

    Holds when every literal of ``weaker`` is entailed by some literal
    of ``stronger`` — the (sound, incomplete) check of Figure 9.
    """
    universe = theory.universe()
    mask = universe.lower(stronger)
    return not universe.lower(weaker) & ~(mask | universe.info(mask)[3])


def simplify(dnf: Dnf, theory: Theory) -> Dnf:
    """Remove disjuncts subsumed by earlier (shorter) kept disjuncts.

    This is ``simplify`` of Figure 8 and is semantics-preserving: a
    removed cube denotes a subset of a kept one.
    """
    universe = theory.universe()
    by_mask = {universe.lower(cube): cube for cube in dnf.cubes}
    infos = {mask: universe.info(mask) for mask in by_mask}
    kept = universe.simplify(list(by_mask), infos)
    if len(kept) == len(dnf.cubes):
        return dnf
    return Dnf(tuple(by_mask[mask] for mask in kept))


def merge_cubes(dnf: Dnf, theory: Theory) -> Dnf:
    """Semantics-preserving cube merging (a one-literal Quine-McCluskey
    pass, iterated to fixpoint).

    Whenever a set of cubes share a common *rest* and their remaining
    literals exhaust all cases (``l`` and ``!l``, or a full value sweep
    of an exclusive group), the whole set collapses to the rest.  Used
    to compact formulas produced by wp *synthesis*, whose raw output
    enumerates one cube per footprint assignment."""
    cubes = set(dnf.cubes)
    changed = True
    while changed:
        changed = False
        by_rest: Dict[Cube, set] = {}
        for cube in cubes:
            for l in cube:
                by_rest.setdefault(cube - {l}, set()).add(l)
        for rest, literals in by_rest.items():
            if len(literals) < 2 or rest in cubes:
                continue
            if theory.literals_exhaust(frozenset(literals)):
                for l in literals:
                    cubes.discard(rest | {l})
                normalized = theory.normalize_cube(rest)
                if normalized is not None:
                    cubes.add(normalized)
                changed = True
                break
    return simplify(Dnf(_sorted_cubes(cubes)), theory)


def drop_k(
    dnf: Dnf, k: int, contains_current: Callable[[Cube], bool]
) -> Dnf:
    """The beam under-approximation ``dropk`` of Figure 8.

    Keeps the first ``k - 1`` disjuncts (the input is size-sorted) plus
    the first disjunct for which ``contains_current`` holds, i.e. the
    smallest disjunct containing the current ``(p, d)``.  The result
    under-approximates the input and still contains ``(p, d)`` whenever
    the input did — the two requirements on ``approx`` in Section 4.

    Raises ``ValueError`` when no disjunct contains the current pair,
    which would violate the meta-analysis invariant.
    """
    kept = drop_k_cubes(dnf.cubes, k, contains_current)
    return dnf if len(kept) == len(dnf.cubes) else Dnf(tuple(kept))


def drop_k_cubes(cubes: Sequence, k: int, contains_current: Callable) -> Sequence:
    """:func:`drop_k` on a plain sequence of cubes (of any
    representation ``contains_current`` accepts)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(cubes) <= k:
        return cubes
    kept = list(cubes[: k - 1])
    for cube in cubes:
        if contains_current(cube):
            if cube not in kept:
                kept.append(cube)
            return kept
    raise ValueError(
        "drop_k: no disjunct contains the current (p, d); "
        "the meta-analysis invariant is broken"
    )


# ---------------------------------------------------------------------------
# Evaluation and weakest-precondition substitution
# ---------------------------------------------------------------------------


def evaluate_literal(literal: Literal, theory: Theory, p: object, d: object) -> bool:
    value = theory.holds(literal.prim, p, d)
    return value if literal.positive else not value


def evaluate_cube(cube: Cube, theory: Theory, p: object, d: object) -> bool:
    return all(evaluate_literal(l, theory, p, d) for l in cube)


def evaluate(formula: Formula, theory: Theory, p: object, d: object) -> bool:
    """Whether ``(p, d)`` is in ``gamma(formula)``."""
    if isinstance(formula, Dnf):
        return any(evaluate_cube(cube, theory, p, d) for cube in formula.cubes)
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, Lit):
        return evaluate_literal(formula.literal, theory, p, d)
    if isinstance(formula, And):
        return all(evaluate(a, theory, p, d) for a in formula.args)
    if isinstance(formula, Or):
        return any(evaluate(a, theory, p, d) for a in formula.args)
    raise TypeError(f"not a formula: {formula!r}")


def wp_substitute(dnf: Dnf, wp_prim: Callable[[Primitive], Formula]) -> Formula:
    """Substitute every primitive by its weakest precondition.

    Because the forward transfer functions are total and deterministic,
    weakest precondition is a boolean homomorphism: it distributes over
    conjunction, disjunction, *and* negation.  Clients therefore only
    define ``wp`` on primitives; this function lifts it to DNF formulas
    (negative literals become the negation of the primitive's wp).
    """
    disjuncts = []
    for cube in dnf.cubes:
        parts = []
        for l in sorted(cube, key=Literal.sort_key):
            pre = wp_prim(l.prim)
            parts.append(pre if l.positive else neg(pre))
        disjuncts.append(conj(*parts))
    return disj(*disjuncts)
