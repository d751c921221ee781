"""Guarded-update IR: single-source transfer semantics.

A client describes each atomic command *once* as a finite case-split
table — a list of :class:`Case` objects ``(guard, effect)`` where the
guard is a :class:`~repro.core.formula.Formula` over the client's
primitives and the effect is either a finite set of location updates
(:class:`Updates`) or a client-specific special effect.  From that
single table the framework derives

* the forward transfer function ``[[a]]p(d)`` — evaluate the guards on
  ``(p, d)``, apply the winning case's effect — and
* the primitive weakest precondition ``wp_primitive`` of requirement
  (2) of Section 4 — a guard-by-guard disjunction of each case's
  precondition for the primitive,

so forward/backward consistency holds *by construction* instead of
being maintained by hand in mirrored ``analysis.py`` / ``meta.py``
case splits.

The pieces:

* :class:`ValueExpr` — the right-hand sides of updates (:class:`Const`,
  :class:`Read`, :class:`MapRead`, :class:`BoolExpr`).  Each knows its
  boolean precondition ``value_expr == v`` as a formula, how to compile
  itself to a fast closure, and whether it *preserves* a location's
  primitive (used to produce compact, factored wp formulas).
* :class:`Effect` / :class:`Updates` — what a case does to the state.
  Clients with non-finite-map effects (e.g. "escape everything")
  subclass :class:`Effect` directly.
* :class:`SemanticsBinding` — the Location <-> Primitive binding layer:
  which primitive talks about which location, how to read/write a
  location on the concrete state representation, and how to test a
  primitive quickly.
* :class:`GuardedSemantics` — owns the compiled-command store
  (:meth:`~GuardedSemantics.table_key` -> resolved case table, built
  once) shared by forward runs and wp derivation, with hit/miss
  counters for the report.  Sibling semantics of one program (the
  type-state clients of different tracked sites) share one store.

Tables are validated at compile time: the guards must be *total* and
*pairwise disjoint* relative to the binding's theory
(:func:`check_table`), so the derived transfer function is a function
and the derived wp is exact.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.formula import (
    And,
    Bottom,
    CubeUniverse,
    FALSE,
    Formula,
    Info,
    Lit,
    Literal,
    Or,
    Primitive,
    Theory,
    Top,
    TRUE,
    disj,
    neg,
)
from repro.obs import metrics as obs_metrics

#: A location is any hashable token naming one independently-updatable
#: component of the abstract state, e.g. ``("var", "u")`` or ``("err",)``.
Location = Tuple


def _dispatch_counters(semantics: "GuardedSemantics"):
    from repro.core.stats import CacheCounters

    return CacheCounters(
        hits=semantics.dispatch_hits, misses=semantics.dispatch_misses
    )


class TableError(ValueError):
    """A case table failed the totality or disjointness check."""


def _collect_primitives(formula: Formula, seen: Dict[Primitive, None]) -> None:
    if isinstance(formula, Lit):
        seen.setdefault(formula.literal.prim)
    elif isinstance(formula, (And, Or)):
        for arg in formula.args:
            _collect_primitives(arg, seen)


# ---------------------------------------------------------------------------
# Value expressions
# ---------------------------------------------------------------------------


class ValueExpr:
    """Right-hand side of a location update.

    ``precondition(value, binding)`` must be the exact formula denoting
    ``{(p, d) | expr(p, d) == value}``; ``compile(binding)`` a closure
    computing the value on ``(p, d)``; ``preserves(location, value,
    binding)`` whether the primitive ``location == value`` entails its
    own precondition (i.e. the update cannot falsify it) — a sound
    syntactic check used only to pick a more compact wp shape.
    """

    __slots__ = ()

    def precondition(self, value, binding: "SemanticsBinding") -> Formula:
        raise NotImplementedError

    def compile(self, binding: "SemanticsBinding") -> Callable:
        raise NotImplementedError

    def preserves(self, location: Location, value, binding) -> bool:
        return False

    def param_primitives(self, binding) -> Optional[Tuple[Primitive, ...]]:
        """The parameter primitives the compiled closure may consult,
        or ``None`` when unknown.  Drives cross-abstraction sharing of
        bound steps: two abstractions agreeing on these primitives get
        the same specialised closure."""
        return None


class Const(ValueExpr):
    """The constant ``value``."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Const({self.value!r})"

    def precondition(self, value, binding):
        return TRUE if value == self.value else FALSE

    def compile(self, binding):
        value = self.value
        return lambda p, d: value

    def preserves(self, location, value, binding):
        return value == self.value

    def param_primitives(self, binding):
        return ()


class Read(ValueExpr):
    """The current value of another (or the same) location."""

    __slots__ = ("location",)

    def __init__(self, location: Location):
        self.location = location

    def __repr__(self):
        return f"Read({self.location!r})"

    def precondition(self, value, binding):
        return binding.location_literal(self.location, value)

    def compile(self, binding):
        return binding.compile_read(self.location)

    def preserves(self, location, value, binding):
        return location == self.location

    def param_primitives(self, binding):
        return ()


class MapRead(ValueExpr):
    """A finite function of another location's value.

    ``mapping`` is given as an iterable of ``(input, output)`` pairs
    covering every possible input value.
    """

    __slots__ = ("location", "mapping")

    def __init__(self, location: Location, mapping):
        self.location = location
        self.mapping = tuple(mapping)

    def __repr__(self):
        return f"MapRead({self.location!r}, {self.mapping!r})"

    def precondition(self, value, binding):
        return disj(
            *(
                binding.location_literal(self.location, w)
                for w, out in self.mapping
                if out == value
            )
        )

    def compile(self, binding):
        read = binding.compile_read(self.location)
        table = dict(self.mapping)
        return lambda p, d: table[read(p, d)]

    def preserves(self, location, value, binding):
        return location == self.location and dict(self.mapping).get(value) == value

    def param_primitives(self, binding):
        return ()


class BoolExpr(ValueExpr):
    """A boolean value given directly as a formula over primitives."""

    __slots__ = ("formula",)

    def __init__(self, formula: Formula):
        self.formula = formula

    def __repr__(self):
        return f"BoolExpr({self.formula!r})"

    def precondition(self, value, binding):
        return self.formula if value else neg(self.formula)

    def compile(self, binding):
        return binding.compile_formula(self.formula)

    def preserves(self, location, value, binding):
        if value is not True:
            return False
        target = binding.location_literal(location, True)
        if self.formula == target:
            return True
        return isinstance(self.formula, Or) and target in self.formula.args

    def param_primitives(self, binding):
        seen: Dict[Primitive, None] = {}
        _collect_primitives(self.formula, seen)
        return tuple(
            prim for prim in seen if binding.location_of(prim) is None
        )


# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------


class Effect:
    """What one case of a table does to the abstract state.

    ``value_expr_at(location, binding)`` returns the :class:`ValueExpr`
    the effect writes at ``location``, or ``None`` when the location is
    left unchanged — this is the single hook the generic wp derivation
    needs.  ``compile(binding)`` returns a closure ``(p, d) -> d'``.
    """

    __slots__ = ()

    def value_expr_at(self, location: Location, binding) -> Optional[ValueExpr]:
        raise NotImplementedError

    def compile(self, binding: "SemanticsBinding") -> Callable:
        raise NotImplementedError

    def param_primitives(self, binding) -> Optional[Tuple[Primitive, ...]]:
        """The parameter primitives the compiled effect may consult, or
        ``None`` when unknown.  ``None`` is always sound but disables
        cross-abstraction sharing of the bound step for the table."""
        return None


class Updates(Effect):
    """A finite map of simultaneous location updates.

    All right-hand sides are evaluated on the *pre* state, then stored —
    so ``Updates.of({a: Read(b), b: Read(a)})`` swaps.
    """

    __slots__ = ("writes",)

    def __init__(self, writes: Tuple[Tuple[Location, ValueExpr], ...]):
        self.writes = writes

    @classmethod
    def of(cls, mapping: Dict[Location, ValueExpr]) -> "Updates":
        return cls(tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0]))))

    def __repr__(self):
        return f"Updates({self.writes!r})"

    def value_expr_at(self, location, binding):
        for loc, expr in self.writes:
            if loc == location:
                return expr
        return None

    def compile(self, binding):
        if not self.writes:
            return lambda p, d: d
        if len(self.writes) == 1:
            (loc, expr), = self.writes
            value = expr.compile(binding)
            write = binding.compile_write(loc)
            return lambda p, d: write(d, value(p, d))
        values = tuple(expr.compile(binding) for _, expr in self.writes)
        store = binding.compile_store(tuple(loc for loc, _ in self.writes))
        return lambda p, d: store(d, tuple(v(p, d) for v in values))

    def param_primitives(self, binding):
        out: Dict[Primitive, None] = {}
        for _loc, expr in self.writes:
            prims = expr.param_primitives(binding)
            if prims is None:
                return None
            for prim in prims:
                out.setdefault(prim)
        return tuple(out)


#: The effect that leaves the state unchanged.
IDENTITY = Updates(())


class Case:
    """One row of a case table: ``(guard, effect)``."""

    __slots__ = ("guard", "effect")

    def __init__(self, guard: Formula, effect: Effect):
        self.guard = guard
        self.effect = effect

    def __repr__(self):
        return f"Case({self.guard!r}, {self.effect!r})"


Table = Sequence[Case]


# ---------------------------------------------------------------------------
# The binding layer
# ---------------------------------------------------------------------------


class SemanticsBinding:
    """Location <-> Primitive binding for one client.

    Ties three vocabularies together: the client's *primitives* (what
    formulas talk about), its *locations* (what updates write), and its
    concrete *state representation* (what the compiled closures touch).
    """

    theory: Theory

    # -- primitives -> locations ------------------------------------------

    def location_of(self, prim: Primitive) -> Optional[Location]:
        """The location ``prim`` observes, or ``None`` for primitives
        (e.g. parameter atoms) no command ever writes."""
        raise NotImplementedError

    def prim_value(self, prim: Primitive):
        """The value ``v`` such that ``prim`` asserts ``location == v``.
        Boolean-location clients keep the default ``True``."""
        return True

    # -- locations -> primitives ------------------------------------------

    def location_literal(self, location: Location, value) -> Formula:
        """The formula asserting ``location == value``."""
        raise NotImplementedError

    # -- locations -> state representation --------------------------------

    def compile_read(self, location: Location) -> Callable:
        """A closure ``(p, d) -> value`` reading ``location``."""
        raise NotImplementedError

    def compile_write(self, location: Location) -> Callable:
        """A closure ``(d, value) -> d'`` writing ``location``."""
        raise NotImplementedError

    def compile_store(self, locations: Tuple[Location, ...]) -> Callable:
        """A closure ``(d, values) -> d'`` writing several locations at
        once.  The default chains :meth:`compile_write`; clients with a
        tuple-backed state can build the new tuple in one pass."""
        writes = tuple(self.compile_write(loc) for loc in locations)

        def store(d, values):
            for write, value in zip(writes, values):
                d = write(d, value)
            return d

        return store

    # -- primitives -> state representation --------------------------------

    def compile_primitive_test(self, prim: Primitive) -> Callable:
        """A closure ``(p, d) -> bool`` testing ``prim``; the default
        defers to the theory, clients override with index-based tests."""
        theory = self.theory
        return lambda p, d: theory.holds(prim, p, d)

    def compile_primitive_test_bound(self, prim: Primitive, p) -> Callable:
        """A closure ``d -> bool`` testing ``prim`` under a fixed
        abstraction.  The default binds :meth:`compile_primitive_test`;
        clients override to drop the extra call frame on the hot path."""
        test = self.compile_primitive_test(prim)
        return lambda d: test(p, d)

    def compile_formula(self, formula: Formula) -> Callable:
        """A closure ``(p, d) -> bool`` evaluating ``formula``."""
        if isinstance(formula, Top):
            return lambda p, d: True
        if isinstance(formula, Bottom):
            return lambda p, d: False
        if isinstance(formula, Lit):
            test = self.compile_primitive_test(formula.literal.prim)
            if formula.literal.positive:
                return test
            return lambda p, d: not test(p, d)
        if isinstance(formula, And):
            parts = tuple(self.compile_formula(a) for a in formula.args)
            return lambda p, d: all(part(p, d) for part in parts)
        if isinstance(formula, Or):
            parts = tuple(self.compile_formula(a) for a in formula.args)
            return lambda p, d: any(part(p, d) for part in parts)
        raise TypeError(f"not a formula: {formula!r}")

    def bind_formula(self, formula: Formula, p):
        """Partially evaluate ``formula`` under a fixed abstraction.

        Parameter literals (``location_of(prim) is None``) fold to
        constants — their tests must not read the state — and constant
        subformulas propagate, so the result is ``True``, ``False``, or
        a closure ``d -> bool`` over the residual state literals only.
        """
        if isinstance(formula, Top):
            return True
        if isinstance(formula, Bottom):
            return False
        if isinstance(formula, Lit):
            prim = formula.literal.prim
            if self.location_of(prim) is None:
                value = bool(self.compile_primitive_test(prim)(p, None))
                return value if formula.literal.positive else not value
            test = self.compile_primitive_test_bound(prim, p)
            if formula.literal.positive:
                return test
            return lambda d: not test(d)
        if isinstance(formula, And):
            parts = []
            for a in formula.args:
                part = self.bind_formula(a, p)
                if part is False:
                    return False
                if part is not True:
                    parts.append(part)
            if not parts:
                return True
            if len(parts) == 1:
                return parts[0]
            parts = tuple(parts)
            return lambda d: all(part(d) for part in parts)
        if isinstance(formula, Or):
            parts = []
            for a in formula.args:
                part = self.bind_formula(a, p)
                if part is True:
                    return True
                if part is not False:
                    parts.append(part)
            if not parts:
                return False
            if len(parts) == 1:
                return parts[0]
            parts = tuple(parts)
            return lambda d: any(part(d) for part in parts)
        raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Table validation
# ---------------------------------------------------------------------------


def _guard_primitives(table: Table) -> Tuple[Primitive, ...]:
    seen: Dict[Primitive, None] = {}
    for case in table:
        _collect_primitives(case.guard, seen)
    return tuple(seen)


def _partial_guard(
    formula: Formula, assignment: Dict[Primitive, bool]
) -> Optional[bool]:
    """Three-valued evaluation under a partial assignment: ``True`` /
    ``False`` when every completion agrees, ``None`` when undecided."""
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, Lit):
        literal = formula.literal
        value = assignment.get(literal.prim)
        if value is None:
            return None
        return value if literal.positive else not value
    if isinstance(formula, And):
        undecided = False
        for arg in formula.args:
            result = _partial_guard(arg, assignment)
            if result is False:
                return False
            if result is None:
                undecided = True
        return None if undecided else True
    if isinstance(formula, Or):
        undecided = False
        for arg in formula.args:
            result = _partial_guard(arg, assignment)
            if result is True:
                return True
            if result is None:
                undecided = True
        return None if undecided else False
    raise TypeError(f"not a formula: {formula!r}")


def _eval_guard(formula: Formula, assignment: Dict[Primitive, bool]) -> bool:
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, Lit):
        value = assignment[formula.literal.prim]
        return value if formula.literal.positive else not value
    if isinstance(formula, And):
        return all(_eval_guard(a, assignment) for a in formula.args)
    if isinstance(formula, Or):
        return any(_eval_guard(a, assignment) for a in formula.args)
    raise TypeError(f"not a formula: {formula!r}")


#: Guard-primitive count beyond which the exhaustive check is refused.
MAX_GUARD_PRIMITIVES = 12


def check_table(table: Table, theory: Theory, command=None) -> None:
    """Check the guards are total and pairwise disjoint.

    Explores the boolean assignments to the guards' primitives that are
    consistent under ``theory`` and demands exactly one guard hold on
    each.  The exploration recurses one primitive at a time, pruning a
    whole subtree as soon as the partial assignment is inconsistent
    (``normalize_cube`` returns ``None``) — with exclusive-value
    theories this visits a small fraction of the 2^n raw assignments.
    """
    # Fast paths for the two shapes almost every table takes: a single
    # unconditional case, and a two-way split on one literal.  Both are
    # partitions by construction, so the enumeration below is skipped.
    if len(table) == 1 and isinstance(table[0].guard, Top):
        return
    if len(table) == 2:
        first, second = table[0].guard, table[1].guard
        if (
            isinstance(first, Lit)
            and isinstance(second, Lit)
            and first.literal.prim == second.literal.prim
            and first.literal.positive != second.literal.positive
        ):
            return
    prims = _guard_primitives(table)
    group_of = getattr(theory, "group_of", None)
    if group_of is not None and len(prims) > 1:
        # Bucket primitives by their exclusive-value group so each
        # group is decided over consecutive levels: the cube then
        # collapses eagerly under normalisation and the subtree skip
        # below fires as early as possible.
        try:
            buckets: Dict[object, List[Primitive]] = {}
            for prim in prims:
                buckets.setdefault(group_of(prim)[0], []).append(prim)
            prims = tuple(p for bucket in buckets.values() for p in bucket)
        except Exception:
            pass  # unknown primitives: keep discovery order
    if len(prims) > MAX_GUARD_PRIMITIVES:
        raise TableError(
            f"table for {command!r} has {len(prims)} guard primitives; "
            f"the totality check enumerates up to 2^n assignments and "
            f"refuses n > {MAX_GUARD_PRIMITIVES}"
        )
    count = len(prims)
    assignment: Dict[Primitive, bool] = {}

    def check_leaf() -> None:
        matches = [
            i for i, case in enumerate(table)
            if _eval_guard(case.guard, assignment)
        ]
        if len(matches) == 1:
            return
        detail = "no guard holds" if not matches else (
            f"guards {matches} overlap"
        )
        raise TableError(
            f"table for {command!r} is not a partition: {detail} under "
            f"{{{', '.join(str(Literal(pr, v)) for pr, v in assignment.items())}}}"
        )

    guards = tuple(case.guard for case in table)

    def recurse(i: int, cube: frozenset, active: Tuple[int, ...], true_count: int) -> None:
        if i == count:
            check_leaf()
            return
        prim = prims[i]
        for value in (True, False):
            # ``cube`` is kept in normalised form, so each step
            # normalises a small canonical set plus one literal rather
            # than the whole raw assignment.
            extended = theory.normalize_cube(cube | {Literal(prim, value)})
            if extended is None:
                continue  # inconsistent under the theory; unreachable
            assignment[prim] = value
            # Re-evaluate the still-undecided guards; once exactly one
            # guard is decided true and all others false, every
            # consistent completion of the cube passes — skip the
            # whole subtree.  Failures fall through to the leaf check
            # so error messages name a complete assignment.
            undecided = []
            decided_true = true_count
            for index in active:
                result = _partial_guard(guards[index], assignment)
                if result is True:
                    decided_true += 1
                elif result is None:
                    undecided.append(index)
            if decided_true == 1 and not undecided:
                assignment.pop(prim, None)
                continue
            recurse(i + 1, extended, tuple(undecided), decided_true)
        assignment.pop(prim, None)

    recurse(0, frozenset(), tuple(range(len(guards))), 0)


# ---------------------------------------------------------------------------
# Compiled commands
# ---------------------------------------------------------------------------


def _identity_step(d):
    return d


class CompiledCommand:
    """One command's resolved case table: compiled guards + effects for
    the forward direction, the written locations and lowered guards for
    the backward, and a per-abstraction cache of specialised
    ``d -> d'`` steps."""

    __slots__ = (
        "cases",
        "binding",
        "_apply",
        "_writes",
        "_guards",
        "_all_identity",
        "_effects",
        "_param_prims",
        "_bound",
    )

    def __init__(self, table: Table, binding: SemanticsBinding, command=None):
        check_table(table, binding.theory, command)
        # Cases whose guard is unsatisfiable can never fire.
        self.cases = tuple(
            case for case in table if not isinstance(case.guard, Bottom)
        )
        self.binding = binding
        self._writes: Dict[Location, bool] = {}
        #: ``(universe epoch, each case's guard as a mask DNF)``.
        self._guards: Optional[Tuple[int, Tuple[Dict[int, Info], ...]]] = None
        self._all_identity = all(
            isinstance(case.effect, Updates) and not case.effect.writes
            for case in self.cases
        )
        self._effects = tuple(
            case.effect.compile(binding) for case in self.cases
        )
        self._param_prims = self._collect_param_prims()
        self._bound: Dict[object, Callable] = {}
        # The generic (p, d) applier is compiled on first use: the
        # engines go through :meth:`bind`, so many commands never pay
        # for it.
        self._apply: Optional[Callable] = None

    def _collect_param_prims(self) -> Optional[Tuple[Primitive, ...]]:
        """Every parameter primitive the table's guards or effects may
        consult, or ``None`` when an effect's footprint is unknown."""
        binding = self.binding
        seen: Dict[Primitive, None] = {}
        for prim in _guard_primitives(self.cases):
            if binding.location_of(prim) is None:
                seen.setdefault(prim)
        for case in self.cases:
            prims = case.effect.param_primitives(binding)
            if prims is None:
                return None
            for prim in prims:
                if binding.location_of(prim) is None:
                    seen.setdefault(prim)
        return tuple(seen)

    # -- forward -----------------------------------------------------------

    def _compile_apply(self) -> Callable:
        binding = self.binding
        if self._all_identity:
            return lambda p, d: d
        if len(self.cases) == 1 and isinstance(self.cases[0].guard, Top):
            return self._effects[0]
        compiled = tuple(
            (
                None if isinstance(case.guard, Top)
                else binding.compile_formula(case.guard),
                effect,
            )
            for case, effect in zip(self.cases, self._effects)
        )

        def apply(p, d):
            for guard, effect in compiled:
                if guard is None or guard(p, d):
                    return effect(p, d)
            raise TableError("no guard matched; table totality was violated")

        return apply

    def apply(self, p, d):
        fn = self._apply
        if fn is None:
            fn = self._apply = self._compile_apply()
        return fn(p, d)

    def specialisation_key(self, p) -> object:
        """The cache key identifying ``p``'s specialisation of this
        table: its *parameter footprint* — the truth values of the
        parameter primitives the table consults — when known, else
        ``p`` itself.  Abstractions sharing a footprint share one
        specialised step; the compiled bitset kernel keys its lowered
        steps on ``(table key, specialisation key)``."""
        prims = self._param_prims
        if prims is None:
            return p
        if prims:
            theory = self.binding.theory
            return tuple(theory.holds(prim, p, None) for prim in prims)
        return ()

    def bind(self, p) -> Callable:
        """A specialised step ``d -> d'`` for the fixed abstraction.

        Guards are partially evaluated under ``p`` — parameter literals
        fold to constants, dead cases drop out, and a guard that folds
        to true truncates the chain (disjointness makes the rest
        unreachable).  Specialisations are cached by the table's
        parameter footprint, so a ``p``-independent command shares one
        closure across every abstraction."""
        if self._all_identity:
            return _identity_step
        key = self.specialisation_key(p)
        fn = self._bound.get(key)
        if fn is None:
            fn = self._bound[key] = self._compile_bound(p)
        return fn

    def _compile_bound(self, p) -> Callable:
        binding = self.binding
        rows = []
        for case, effect in zip(self.cases, self._effects):
            guard = binding.bind_formula(case.guard, p)
            if guard is False:
                continue
            identity = (
                isinstance(case.effect, Updates) and not case.effect.writes
            )
            rows.append((None if guard is True else guard, effect, identity))
            if guard is True:
                break
        if not rows:
            raise TableError("no guard satisfiable; table totality was violated")
        # Totality (checked at table-construction time) means exactly
        # one surviving guard holds on every state, so once the earlier
        # guards have failed the last one must hold: elide its test.
        last_guard, last_effect, last_identity = rows[-1]
        rows[-1] = (None, last_effect, last_identity)
        if len(rows) == 1 and rows[0][0] is None:
            _guard, effect, identity = rows[0]
            if identity:
                return _identity_step
            return lambda d: effect(p, d)
        if len(rows) == 2 and rows[1][0] is None:
            # The ubiquitous two-way split (e.g. an err-guarded
            # identity in front of the real effect): branch directly.
            guard1, effect1, identity1 = rows[0]
            _guard2, effect2, identity2 = rows[1]
            if identity1:

                def step2(d):
                    if guard1(d):
                        return d
                    return effect2(p, d)

                return step2
            if identity2:

                def step2(d):
                    if guard1(d):
                        return effect1(p, d)
                    return d

                return step2

            def step2(d):
                if guard1(d):
                    return effect1(p, d)
                return effect2(p, d)

            return step2
        rows = tuple(rows)

        def step(d):
            for guard, effect, identity in rows:
                if guard is None or guard(d):
                    return d if identity else effect(p, d)
            raise TableError("no guard matched; table totality was violated")

        return step

    # -- backward ----------------------------------------------------------

    def writes(self, location: Location) -> bool:
        """Whether some case of the table writes ``location`` (its
        effect's :meth:`~Effect.value_expr_at` is not ``None``).  The
        weakest precondition of a primitive at a location no case
        writes is the primitive itself."""
        written = self._writes.get(location)
        if written is None:
            binding = self.binding
            written = self._writes[location] = any(
                case.effect.value_expr_at(location, binding) is not None
                for case in self.cases
            )
        return written

    def wp_primitive(self, prim: Primitive) -> Formula:
        """The weakest precondition of ``prim``: the lift of
        :meth:`wp_masks`."""
        universe = self.binding.theory.universe()
        return universe.lift_dnf(self.wp_masks(prim)).to_formula()

    def wp_masks(self, prim: Primitive) -> Tuple[int, ...]:
        """Guard-by-guard wp derivation, on the theory's
        :class:`~repro.core.formula.CubeUniverse`.

        By totality/disjointness, ``wp(prim) = \\/_i (g_i & pre_i)``
        where ``pre_i`` is case ``i``'s precondition for ``prim``.
        When every case *preserves* the primitive (cannot falsify it),
        the equivalent factored form ``prim | \\/ (g_i & pre_i)`` over
        the non-trivial cases is used instead — it canonicalises to the
        compact cube sets hand-written metas used.  Each case's guard
        is lowered once per command; the result is sorted, simplified
        and merged (:meth:`~repro.core.formula.CubeUniverse.merge`), so
        the downstream beam (``drop_k``) sees the same cubes as a
        formula-level ``to_dnf``, ``simplify``, ``merge_cubes`` would
        give.  Not memoised: the backward pass keeps each result in its
        wp memo entry."""
        binding = self.binding
        universe = binding.theory.universe()
        identity = Lit(Literal(prim, True))
        location = binding.location_of(prim)
        if location is None or not self.writes(location):
            # Never written here: wp is the primitive itself.
            return (1 << universe.bit_of(identity.literal),)
        value = binding.prim_value(prim)
        pres: List[Formula] = []
        preserving = True
        for case in self.cases:
            expr = case.effect.value_expr_at(location, binding)
            if expr is None:
                pres.append(identity)
                continue
            pres.append(expr.precondition(value, binding))
            preserving = preserving and expr.preserves(location, value, binding)
        # Interning may move the universe epoch, so every literal is
        # interned before any Info is computed.
        universe.intern(identity)
        for pre in pres:
            universe.intern(pre)
        raw: Dict[int, Info] = {}
        if preserving:
            raw.update(universe.unit(universe.bit[identity.literal]))
        for guard, pre in zip(self._guard_dnfs(universe), pres):
            if not (preserving and pre == identity):
                raw.update(universe.conjoin(guard, universe.dnf(pre)[0]))
        ordered = universe.sort(raw)
        return tuple(universe.merge(universe.simplify(ordered, raw)))

    def _guard_dnfs(self, universe: CubeUniverse) -> Tuple[Dict[int, Info], ...]:
        """Each case's guard as a mask DNF, lowered once per universe
        epoch."""
        guards = self._guards
        if guards is None or guards[0] != universe.epoch:
            for case in self.cases:
                universe.intern(case.guard)
            guards = self._guards = (
                universe.epoch,
                tuple(universe.dnf(case.guard)[0] for case in self.cases),
            )
        return guards[1]


# ---------------------------------------------------------------------------
# The semantics object
# ---------------------------------------------------------------------------


class BoundStep:
    """A ``(command, d) -> d'`` step with the abstraction ``p`` bound.

    Forward engines treat this as a plain callable; engines aware of the
    :meth:`for_command` protocol pre-resolve the dispatch per distinct
    command and skip the per-step cache lookup entirely.  Resolved
    steps are memoized on the instance — and instances are cached per
    abstraction by :meth:`GuardedSemantics.bound_step` — so resolution
    happens once per ``(p, command)`` over the client's lifetime, not
    once per engine run.
    """

    __slots__ = ("_semantics", "_p", "_resolved")

    def __init__(self, semantics: "GuardedSemantics", p):
        self._semantics = semantics
        self._p = p
        self._resolved: Dict[object, Callable] = {}

    def __call__(self, command, d):
        return self.for_command(command)(d)

    def for_command(self, command) -> Callable:
        """A closure ``d -> d'`` with the dispatch already resolved and
        the guards specialised to the bound abstraction."""
        fn = self._resolved.get(command)
        if fn is None:
            fn = self._resolved[command] = self._semantics.compiled(
                command
            ).bind(self._p)
        return fn


class GuardedSemantics:
    """A client's transfer semantics, defined once as case tables.

    Subclasses implement :meth:`table_for`.  The compiled-command store
    (:meth:`table_key` -> :class:`CompiledCommand`) is filled lazily,
    once per distinct key, and shared by the forward runs of *every*
    abstraction and by the backward wp derivation.

    ``compiled_store`` lets sibling semantics share one store: pass the
    first sibling's ``compiled_store`` and ``binding`` to the others.
    That is sound when every sibling maps equal keys to equal tables
    (the :meth:`table_key` contract).
    """

    #: Registry suffix naming this client's dispatch cache; concrete
    #: semantics override it (``"typestate"``, ``"escape"``, ...).
    metrics_name: str = "semantics"

    def __init__(
        self,
        binding: SemanticsBinding,
        compiled_store: Optional[Dict[object, CompiledCommand]] = None,
    ):
        self.binding = binding
        self.compiled_store: Dict[object, CompiledCommand] = (
            {} if compiled_store is None else compiled_store
        )
        self._bound_steps: Dict[object, BoundStep] = {}
        self.dispatch_hits = 0
        self.dispatch_misses = 0
        obs_metrics.register_cache(
            f"dispatch.{self.metrics_name}", self, _dispatch_counters
        )

    # -- client hook -------------------------------------------------------

    def table_for(self, command) -> Table:
        """The case table of ``command``."""
        raise NotImplementedError

    def table_key(self, command) -> Hashable:
        """The key ``command``'s compiled table is stored under, here
        and in the backward wp memo.

        Contract: :meth:`table_for` is a function of the key — equal
        keys, from this semantics or from a sibling sharing its
        compiled store, mean equal tables.  The default, the command
        itself, holds for any semantics whose tables read nothing but
        the command.  The compiled bitset kernel keys its lowered steps
        on it too, so siblings share those as well."""
        return command

    def key_varies_by_sibling(self, command) -> bool:
        """Whether :meth:`table_key` of ``command`` may differ between
        sibling semantics sharing this one's compiled store.  A
        sibling's compiled engine starts from the family's edge table
        and re-checks the keys of these commands only.  The default
        (the key is the command) never varies."""
        return False

    # -- dispatch ----------------------------------------------------------

    def compiled(self, command) -> CompiledCommand:
        key = self.table_key(command)
        entry = self.compiled_store.get(key)
        if entry is None:
            self.dispatch_misses += 1
            entry = self.compiled_store[key] = CompiledCommand(
                self.table_for(command), self.binding, command
            )
        else:
            self.dispatch_hits += 1
        return entry

    # -- derived semantics -------------------------------------------------

    def transfer(self, command, p, d):
        """The forward transfer ``[[command]]p(d)``."""
        return self.compiled(command).apply(p, d)

    def wp_primitive(self, command, prim: Primitive) -> Formula:
        """The exact weakest precondition of ``[[command]]p`` w.r.t.
        ``prim`` (requirement (2) of Section 4), derived from the table."""
        return self.compiled(command).wp_primitive(prim)

    def bound_step(self, p) -> BoundStep:
        """The forward step function with abstraction ``p`` bound.

        One instance per abstraction: repeat runs under the same ``p``
        (and, via the parameter-footprint cache underneath, under any
        ``p`` agreeing on a command's parameter primitives) reuse the
        already-specialised per-command closures."""
        step = self._bound_steps.get(p)
        if step is None:
            step = self._bound_steps[p] = BoundStep(self, p)
        return step
