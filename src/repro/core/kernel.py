"""The compiled bitset kernel for the forward phase.

The interpreted forward engine applies each guarded-update table by
walking its cases: per state, evaluate guard closures, then run the
matching effect closure — several Python frames per transfer.  For the
finite domains all three bundled clients use, the whole table can
instead be lowered *once per (table key, footprint)* into a
straight-line Python function over integer bitsets:

* each abstract state is interned to an integer by the client's
  :class:`~repro.dataflow.bitset.StateCodec`;
* each guard lowers to a disjunction of ``(ones, zeros)`` mask cubes
  (parameter literals fold to constants under the bound abstraction
  ``p``, exactly mirroring ``SemanticsBinding.bind_formula``);
* each effect lowers to at most one ``(s & mask) << delta`` term per
  distinct bit distance (kept bits, ``Read`` copies and one-hot
  ``MapRead``\\ s alike), constant bits, conditional bits for
  ``BoolExpr`` writes, and a lookup table per bool-group ``MapRead``;
* the rows are emitted as one ``_kernel_step(s)`` body whose constants
  are closure cells, so every step of one source *shape* shares one
  compiled code object — after which a transfer is a single call
  evaluating a few integer mask expressions.

What one family of clients shares lives in a :class:`KernelStore`:
the codec (with its encode/decode memos and its per-codec memo of
lowered parameter-free effects), the lowered steps keyed by
``(semantics.table_key(command), specialisation_key(p))`` — the key the
compiled-command store and the wp memo already use — and the family's
edge tables.  The template resolves every node once; the table for an
abstraction ``p`` is derived from the family's last one by
re-resolving only the parameter-dependent nodes whose footprint
changed between the two abstractions; and each client's
:class:`KernelEngine` puts in its own nodes, those whose table key may
differ between siblings (the semantics names them through
``key_varies_by_sibling``).

The worklist itself runs in :func:`_run_encoded`, a specialised twin
of :func:`repro.dataflow.collecting.run_collecting` over packed
``state << shift | node`` integer keys.  It preserves the interpreted
engine's observable behaviour *exactly*:

* **FIFO parity** — discovered keys are appended in the same per-pop
  edge order and drained in the same order (a growing list is the same
  queue discipline as the deque), so the pop sequence matches
  ``run_collecting`` pop for pop.
* **Witness parity** — the dict maps each key to the packed key of the
  pop that first derived it.  The deriving *edge* is reconstructed on
  demand as the first successor edge of the predecessor that maps its
  state to the derived one; that edge is necessarily the one that
  performed the insertion (any earlier matching edge would have
  inserted first — in both engines).
* **``steps`` parity** — every recorded state is popped exactly once
  and each pop applies all non-epsilon edges of its node once, so
  ``steps`` is recovered exactly as ``sum(len(states[n]) * commands(n))``.
* **Budget parity** — with a budget installed the loop ticks once per
  pop, like the interpreted loop; without one, the per-pop no-op call
  is hoisted away entirely.

Identity transfers and duplicate ``(dst, fn)`` rows are elided from
the hot successor tables (neither can ever insert anything the
remaining rows don't), and epsilon/identity hops reduce to a single
integer add of a precomputed ``dst - node`` delta.
:class:`KernelResult` decodes states, witnesses, and the step count
lazily at the observation API.  Commands whose guards or effects do
not lower (:class:`~repro.dataflow.bitset.KernelFallback`) fall back
to the interpreted bound step for that command only, wrapped in
encode/decode — bit-identity is preserved either way.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

from repro.core.formula import And, Bottom, Formula, Lit, Or, Top
from repro.core.semantics import (
    BoolExpr,
    Const,
    MapRead,
    Read,
    Updates,
    _identity_step,
)
from repro.dataflow.bitset import BOOL, ONEHOT, KernelFallback, StateCodec
from repro.dataflow.collecting import CollectingResult, WitnessTrace
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs
from repro.robust import budget as robust_budget

__all__ = [
    "EdgeTable",
    "KernelEngine",
    "KernelResult",
    "KernelStore",
    "lower_command",
]

#: Guard lowering result: a constant, or a list of ``(ones, zeros)``
#: mask cubes — the guard holds iff some cube has all ``ones`` bits set
#: and all ``zeros`` bits clear.
_Guard = Union[bool, List[Tuple[int, int]]]

#: A lowered effect: ``(masks, tables, conds, const)`` where the output
#: word is the OR of ``(s & mask) << delta`` per ``(delta, mask)`` of
#: ``masks``, ``table[(s >> shift) & local_mask]`` per ``(shift,
#: local_mask, table)`` of ``tables``, ``bits if guard else 0`` per
#: ``(bits, cubes)`` of ``conds``, and ``const``.  ``None`` stands for
#: the identity on canonical words.
_Lowered = Optional[Tuple[tuple, tuple, tuple, int]]


# ---------------------------------------------------------------------------
# Guard lowering
# ---------------------------------------------------------------------------


def _lower_guard(formula: Formula, binding, codec: StateCodec, p) -> _Guard:
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, Lit):
        literal = formula.literal
        prim = literal.prim
        location = binding.location_of(prim)
        if location is None:
            # Parameter literal: folds to a constant under ``p``, via
            # the same test ``bind_formula`` uses.
            value = bool(binding.compile_primitive_test(prim)(p, None))
            return value if literal.positive else not value
        group = codec.layout.group(location)
        if group is None:
            held = codec.missing_read(location) == binding.prim_value(prim)
            return held if literal.positive else not held
        mask, expect = group.test_bit(binding.prim_value(prim))
        want = expect if literal.positive else not expect
        return [(mask, 0)] if want else [(0, mask)]
    if isinstance(formula, And):
        cubes: List[Tuple[int, int]] = [(0, 0)]
        for arg in formula.args:
            part = _lower_guard(arg, binding, codec, p)
            if part is False:
                return False
            if part is True:
                continue
            merged = []
            for ones, zeros in cubes:
                for more_ones, more_zeros in part:
                    o, z = ones | more_ones, zeros | more_zeros
                    if o & z:
                        continue  # same bit required set and clear
                    if (o, z) not in merged:
                        merged.append((o, z))
            if not merged:
                return False
            cubes = merged
        return True if cubes == [(0, 0)] else cubes
    if isinstance(formula, Or):
        out: List[Tuple[int, int]] = []
        for arg in formula.args:
            part = _lower_guard(arg, binding, codec, p)
            if part is True:
                return True
            if part is False:
                continue
            for cube in part:
                if cube == (0, 0):
                    return True
                if cube not in out:
                    out.append(cube)
        return out if out else False
    raise KernelFallback(f"cannot lower guard: {formula!r}")


# ---------------------------------------------------------------------------
# Effect lowering
# ---------------------------------------------------------------------------


def _lower_effect(effect, binding, codec: StateCodec, p) -> _Lowered:
    """The effect's output word from ``s`` as mask terms (see
    :data:`_Lowered`).

    ``Updates`` lowers only its own writes; any other effect is asked
    for its value at every layout group.  Effects with no parameter
    primitives are lowered once per codec (``codec.lowered``).  Raises
    :class:`KernelFallback` whenever a write cannot be proven to stay
    inside the layout or a value expression has no mask form.
    """
    if isinstance(effect, Updates) and not effect.writes:
        return None
    memo = codec.lowered if effect.param_primitives(binding) == () else None
    if memo is not None and effect in memo:
        return memo[effect]
    if not codec.safe_effect(effect, binding, p):
        raise KernelFallback(f"effect may write outside the layout: {effect!r}")
    layout = codec.layout
    if isinstance(effect, Updates):
        # Writes outside the layout were proven harmless above.
        writes = [
            (layout.group(location), expr)
            for location, expr in effect.writes
            if location in layout
        ]
    else:
        writes = []
        for group in layout.groups:
            expr = effect.value_expr_at(group.location, binding)
            if expr is not None:
                writes.append((group, expr))
    keep = layout.full_mask
    for group, _expr in writes:
        keep &= ~group.mask
    masks: Dict[int, int] = {0: keep}
    tables: List[Tuple[int, int, tuple]] = []
    conds: List[Tuple[int, List[Tuple[int, int]]]] = []
    const = 0
    for group, expr in writes:
        if isinstance(expr, Const):
            const |= group.value_bits(expr.value)
        elif isinstance(expr, Read):
            src = layout.group(expr.location)
            if src is None:
                const |= group.value_bits(codec.missing_read(expr.location))
            elif src.style == group.style and src.values == group.values:
                delta = group.shift - src.shift
                masks[delta] = masks.get(delta, 0) | src.mask
            else:
                raise KernelFallback(
                    f"incompatible copy {expr.location!r} -> {group.location!r}"
                )
        elif isinstance(expr, MapRead):
            mapping = dict(expr.mapping)
            src = layout.group(expr.location)
            if src is None:
                value = codec.missing_read(expr.location)
                if value not in mapping:
                    raise KernelFallback(f"non-total MapRead: {expr!r}")
                const |= group.value_bits(mapping[value])
                continue
            for value in src.domain():
                if value not in mapping:
                    raise KernelFallback(f"non-total MapRead: {expr!r}")
            if src.style == ONEHOT:
                # Exactly one source bit is set: move each to the bit
                # of its image, one shifted mask per bit distance.
                for value in src.domain():
                    out = group.value_bits(mapping[value])
                    if out:
                        bit = src.value_bits(value)
                        delta = out.bit_length() - bit.bit_length()
                        masks[delta] = masks.get(delta, 0) | bit
            else:
                tables.append(
                    (
                        src.shift,
                        src.local_mask,
                        tuple(
                            group.value_bits(mapping[value])
                            for value in src.domain()
                        ),
                    )
                )
        elif isinstance(expr, BoolExpr):
            if group.style != BOOL:
                raise KernelFallback(
                    f"BoolExpr write to non-bool group {group.location!r}"
                )
            lowered = _lower_guard(expr.formula, binding, codec, p)
            if lowered is True:
                const |= group.mask
            elif lowered is not False:
                conds.append((group.mask, lowered))
        else:
            raise KernelFallback(f"cannot lower value expression: {expr!r}")
    terms = tuple(sorted((d, m) for d, m in masks.items() if m))
    if terms == ((0, layout.full_mask),) and not (tables or conds or const):
        # Every bit lands where it was: the identity on canonical
        # (layout-only-bits) words, which is all the worklist holds.
        result = None
    else:
        result = (terms, tuple(tables), tuple(conds), const)
    if memo is not None:
        memo[effect] = result
    return result


# ---------------------------------------------------------------------------
# Source emission, one compiled code object per shape
# ---------------------------------------------------------------------------


class _Cells:
    """The constants of one step's source, bound as closure cells."""

    __slots__ = ("values",)

    def __init__(self):
        self.values: List[object] = []

    def __call__(self, value) -> str:
        self.values.append(value)
        return f"_c{len(self.values) - 1}"


def _guard_src(cubes: List[Tuple[int, int]], cell: _Cells) -> str:
    """Python source testing a lowered guard against local ``s``."""
    tests = []
    for ones, zeros in cubes:
        parts = []
        if ones:
            name = cell(ones)
            parts.append(f"(s & {name}) == {name}")
        if zeros:
            parts.append(f"not (s & {cell(zeros)})")
        tests.append(" and ".join(parts) if parts else "True")
    if len(tests) == 1:
        return tests[0]
    return " or ".join(f"({t})" for t in tests)


def _effect_src(lowered: _Lowered, full_mask: int, cell: _Cells) -> str:
    """Python source computing a lowered effect's output from ``s``."""
    if lowered is None:
        return "s"
    terms, tables, conds, const = lowered
    pieces = []
    for delta, mask in terms:
        if delta == 0:
            pieces.append("s" if mask == full_mask else f"(s & {cell(mask)})")
        elif delta > 0:
            pieces.append(f"((s & {cell(mask)}) << {cell(delta)})")
        else:
            pieces.append(f"((s & {cell(mask)}) >> {cell(-delta)})")
    for shift, local_mask, table in tables:
        if shift:
            pieces.append(f"{cell(table)}[(s >> {cell(shift)}) & {cell(local_mask)}]")
        else:
            pieces.append(f"{cell(table)}[s & {cell(local_mask)}]")
    for bits, cubes in conds:
        pieces.append(f"({cell(bits)} if {_guard_src(cubes, cell)} else 0)")
    if const:
        pieces.append(cell(const))
    return " | ".join(pieces) if pieces else "0"


#: Step factories by source shape (the body with every constant a
#: numbered cell).  Holds only code, no client or family data; bounded
#: for safety, though the bundled clients produce a few dozen shapes.
_SHAPES: Dict[str, Callable] = {}
_MAX_SHAPES = 1024


def _bind_shape(body: List[str], cells: _Cells) -> Callable[[int], int]:
    shape = "\n".join(body)
    factory = _SHAPES.get(shape)
    if factory is None:
        if len(_SHAPES) >= _MAX_SHAPES:
            _SHAPES.clear()
        params = ", ".join(f"_c{i}" for i in range(len(cells.values)))
        source = "\n".join(
            [f"def _factory({params}):", "    def _kernel_step(s):"]
            + [f"        {line}" for line in body]
            + ["    return _kernel_step"]
        )
        namespace: Dict[str, object] = {}
        exec(compile(source, "<repro-kernel>", "exec"), namespace)
        factory = _SHAPES[shape] = namespace["_factory"]
    return factory(*cells.values)


# ---------------------------------------------------------------------------
# Per-command lowering
# ---------------------------------------------------------------------------


def lower_command(compiled, codec: StateCodec, p) -> Callable[[int], int]:
    """Lower one command's case table into an ``int -> int`` step.

    Mirrors ``CompiledCommand._compile_bound`` row for row: cases whose
    guards fold to ``False`` under ``p`` are dropped, the table is
    truncated at the first ``True`` guard, and the last surviving guard
    is elided (tables are checked total at construction).  Raises
    :class:`KernelFallback` when any surviving row resists lowering.
    """
    binding = compiled.binding
    rows: List[Tuple[Optional[List[Tuple[int, int]]], _Lowered]] = []
    for case in compiled.cases:
        guard = _lower_guard(case.guard, binding, codec, p)
        if guard is False:
            continue
        rows.append(
            (
                None if guard is True else guard,
                _lower_effect(case.effect, binding, codec, p),
            )
        )
        if guard is True:
            break
    if not rows:
        raise KernelFallback("all guards folded to False (non-total table?)")
    while len(rows) > 1 and rows[-1][1] is None and rows[-2][1] is None:
        # Identity rows in front of the final identity row need no test.
        del rows[-2]
    if len(rows) == 1 and rows[0][1] is None:
        # The whole table folds to the identity under ``p``: let the
        # worklist treat the edge as an epsilon hop.
        return _identity_step
    full_mask = codec.layout.full_mask
    cell = _Cells()
    body = []
    for cubes, effect in rows[:-1]:
        body.append(f"if {_guard_src(cubes, cell)}:")
        body.append(f"    return {_effect_src(effect, full_mask, cell)}")
    body.append(f"return {_effect_src(rows[-1][1], full_mask, cell)}")
    return _bind_shape(body, cell)


# ---------------------------------------------------------------------------
# Edge tables
# ---------------------------------------------------------------------------


class EdgeTable:
    """Per-node successor tables for :func:`_run_encoded`.

    ``full[node]`` keeps every original edge as ``(fn, dst, edge)`` in
    CFG order — witness and ``steps`` reconstruction need them.  The
    loop dispatches on three parallel per-node arrays, ordered by
    measured pop frequency:

    * ``fns[node]``/``dsts[node]`` — the node has exactly one compiled
      transfer successor (``fns`` is ``None`` otherwise);
    * ``deltas[node]`` — exactly one epsilon/identity successor, stored
      as the packed-key delta ``dst - node`` (``None`` otherwise);
    * ``rest[node]`` — everything else: a tuple of deltas, or a list
      mixing deltas and ``(fn, dst)`` pairs (empty for exit nodes).

    ``counts[node]`` (the node's non-epsilon edges), ``observe`` (the
    source node of each label's ``Observe`` edges, in CFG order),
    ``shift`` and ``mask`` do not depend on the abstraction and are
    shared by every table derived from one template.
    """

    __slots__ = (
        "fns",
        "dsts",
        "deltas",
        "rest",
        "full",
        "counts",
        "observe",
        "shift",
        "mask",
    )

    def __init__(self, cfg, counts: Tuple[int, ...]):
        node_count = cfg.node_count
        self.fns: List[object] = [None] * node_count
        self.dsts: List[int] = [0] * node_count
        self.deltas: List[Optional[int]] = [None] * node_count
        self.rest: List[object] = [()] * node_count
        self.full: List[tuple] = [()] * node_count
        self.counts = counts
        self.observe: Dict[str, Tuple[int, ...]] = {
            label: tuple(edge.src for edge in edges)
            for label, edges in cfg.observe_edges().items()
        }
        self.shift = max(1, node_count - 1).bit_length()
        self.mask = (1 << self.shift) - 1

    def copy(self) -> "EdgeTable":
        table = EdgeTable.__new__(EdgeTable)
        table.fns = self.fns[:]
        table.dsts = self.dsts[:]
        table.deltas = self.deltas[:]
        table.rest = self.rest[:]
        table.full = self.full[:]
        table.counts = self.counts
        table.observe = self.observe
        table.shift = self.shift
        table.mask = self.mask
        return table

    def set_node(self, node: int, rows: tuple, dispatch: Optional[tuple] = None):
        """Install ``node``'s resolved ``(fn, dst, edge)`` rows, with
        their :func:`_node_dispatch` entries (computed when not given)."""
        if dispatch is None:
            dispatch = _node_dispatch(node, rows)
        self.full[node] = rows
        fn, dst, delta, rest = dispatch
        self.fns[node] = fn
        self.dsts[node] = dst
        self.deltas[node] = delta
        self.rest[node] = rest


def _node_dispatch(node: int, rows: tuple) -> tuple:
    """The ``(fns, dsts, deltas, rest)`` entries of ``node``'s rows.

    Identity steps (including whole tables that fold to the identity
    under ``p``) become deltas, and later duplicate ``(dst, fn)`` rows
    are dropped: in the interpreted loop such a row always finds its
    output already present (the earlier identical row inserted it in
    the same pop), so eliding it changes no insertion, no witness, and
    no pop — only the per-pop work."""
    entries: List[object] = []
    markers = set()
    for fn, dst, _edge in rows:
        if fn is _identity_step:
            fn = None
        marker = (dst, None if fn is None else id(fn))
        if marker in markers:
            continue
        markers.add(marker)
        entries.append(dst - node if fn is None else (fn, dst))
    if len(entries) == 1 and type(entries[0]) is tuple:
        return entries[0][0], entries[0][1], None, ()
    if len(entries) == 1:
        return None, 0, entries[0], ()
    if entries and all(type(entry) is int for entry in entries):
        return None, 0, None, tuple(entries)
    return None, 0, None, entries if entries else ()


def _run_encoded(table: EdgeTable, entry_key: int) -> Dict[int, Optional[int]]:
    """The packed-key worklist: ``key -> packed predecessor key`` (the
    entry maps to ``None``).

    Single-successor and all-epsilon nodes insert through
    ``dict.setdefault``: with one edge — or several distinct deltas —
    no two entries of one pop can produce the same key, so
    ``setdefault(...) is item`` holds exactly for fresh insertions.
    Mixed nodes use the two-step membership test instead: a compiled
    transfer can coincide with a sibling edge's output, and the
    identity check would then re-enqueue the key.
    """
    fns = table.fns
    dsts = table.dsts
    deltas = table.deltas
    rest = table.rest
    shift = table.shift
    mask = table.mask
    seen: Dict[int, Optional[int]] = {entry_key: None}
    setdefault = seen.setdefault
    pending = [entry_key]
    append = pending.append
    budget = robust_budget.current_budget()
    if budget is None:
        for item in pending:
            node = item & mask
            fn = fns[node]
            if fn is not None:
                key = fn(item >> shift) << shift | dsts[node]
                if setdefault(key, item) is item:
                    append(key)
                continue
            delta = deltas[node]
            if delta is not None:
                key = item + delta
                if setdefault(key, item) is item:
                    append(key)
                continue
            rows = rest[node]
            if type(rows) is tuple:
                for delta in rows:
                    key = item + delta
                    if setdefault(key, item) is item:
                        append(key)
            else:
                for row in rows:
                    if type(row) is int:
                        key = item + row
                    else:
                        key = row[0](item >> shift) << shift | row[1]
                    if key not in seen:
                        seen[key] = item
                        append(key)
    else:
        # Same body, with the interpreted loop's once-per-pop budget
        # tick — identical charge counts under an active budget.
        tick = budget.tick
        for item in pending:
            tick()
            node = item & mask
            fn = fns[node]
            if fn is not None:
                key = fn(item >> shift) << shift | dsts[node]
                if setdefault(key, item) is item:
                    append(key)
                continue
            delta = deltas[node]
            if delta is not None:
                key = item + delta
                if setdefault(key, item) is item:
                    append(key)
                continue
            rows = rest[node]
            if type(rows) is tuple:
                for delta in rows:
                    key = item + delta
                    if setdefault(key, item) is item:
                        append(key)
            else:
                for row in rows:
                    if type(row) is int:
                        key = item + row
                    else:
                        key = row[0](item >> shift) << shift | row[1]
                    if key not in seen:
                        seen[key] = item
                        append(key)
    return seen


class KernelResult:
    """A lazily-decoded collecting fixpoint.

    Wraps the packed ``key -> predecessor key`` fixpoint and exposes
    the interpreted result's observation API over decoded client
    states.  Everything derived — node tables, witness edges, the
    ``steps`` count — is reconstructed on demand: the hottest consumers
    (micro-benchmarks, cache probes) never touch most nodes, and the
    TRACER driver only reads the few Observe nodes of each query group.
    Each node read scans the fixpoint once: a scan keeps only that
    node's states, where grouping every key by node builds tables for
    nodes nobody reads, and the forward-run cache keeps them alive.
    """

    __slots__ = (
        "codec",
        "cfg",
        "entry_state",
        "_seen",
        "_table",
        "_steps",
        "_by_node",
    )

    def __init__(self, seen, table: EdgeTable, codec: StateCodec, cfg, entry_state):
        self._seen = seen
        self._table = table
        self.codec = codec
        self.cfg = cfg
        self.entry_state = entry_state
        self._steps: Optional[int] = None
        self._by_node: Dict[int, Dict[object, int]] = {}

    @property
    def steps(self) -> int:
        """Transfer applications, recovered exactly: each recorded
        state is popped once, and a pop applies every non-epsilon edge
        of its node once."""
        if self._steps is None:
            counts = self._table.counts
            mask = self._table.mask
            self._steps = sum(counts[key & mask] for key in self._seen)
        return self._steps

    def _witness_edge(self, pred_node: int, pred_bits: int, node: int, bits: int):
        """The edge that first derived ``(node, bits)`` from the
        predecessor pop: the first successor edge mapping
        ``pred_bits`` to ``bits`` at ``dst == node`` — any earlier
        matching edge would have performed the insertion instead, in
        this engine and the interpreted one alike.  The only edge of a
        single-successor predecessor needs no check."""
        rows = self._table.full[pred_node]
        if len(rows) == 1:
            return rows[0][2]
        for fn, dst, edge in rows:
            if dst == node and (pred_bits if fn is None else fn(pred_bits)) == bits:
                return edge
        raise AssertionError(
            f"no witness edge from node {pred_node} to {node}"
        )

    def _node_table(self, node: int) -> Dict[object, int]:
        table = self._by_node.get(node)
        if table is None:
            shift = self._table.shift
            mask = self._table.mask
            found = [key >> shift for key in self._seen if (key & mask) == node]
            decode = self.codec.decode
            table = self._by_node[node] = {decode(bits): bits for bits in found}
        return table

    def states_at(self, node: int) -> Tuple[object, ...]:
        return tuple(sorted(self._node_table(node), key=repr))

    def exit_states(self) -> Tuple[object, ...]:
        return self.states_at(self.cfg.exit)

    def states_before_observe(self, label: str):
        out: List[Tuple[int, object]] = []
        for src in self._table.observe.get(label, ()):
            for state in self.states_at(src):
                out.append((src, state))
        return tuple(out)

    def trace_to(self, node: int, state: object) -> WitnessTrace:
        """Witness trace for a decoded state: re-encode via the node
        table (``KeyError`` when never derived, like the interpreted
        result), walk the packed witness links, and decode the state
        before each command."""
        shift = self._table.shift
        mask = self._table.mask
        witness_edge = self._witness_edge
        decode = self.codec.decode
        seen = self._seen
        commands: List[object] = []
        states = [state]
        key = self._node_table(node)[state] << shift | node
        pred = seen[key]
        while pred is not None:
            pred_bits = pred >> shift
            edge = witness_edge(pred & mask, pred_bits, key & mask, key >> shift)
            if edge.command is not None:
                commands.append(edge.command)
                states.append(decode(pred_bits))
            key = pred
            pred = seen[key]
        commands.reverse()
        states.reverse()
        return WitnessTrace(commands, tuple(states))

    def materialize(self) -> CollectingResult:
        """Eagerly decode everything into a plain
        :class:`CollectingResult` (tests compare engines through this)."""
        shift = self._table.shift
        mask = self._table.mask
        decode = self.codec.decode
        states: Dict[int, Dict[object, object]] = {}
        for key, pred in self._seen.items():
            node = key & mask
            bits = key >> shift
            out = states.setdefault(node, {})
            if pred is None:
                out[decode(bits)] = None
            else:
                pred_node = pred & mask
                pred_bits = pred >> shift
                edge = self._witness_edge(pred_node, pred_bits, node, bits)
                out[decode(bits)] = (pred_node, decode(pred_bits), edge)
        return CollectingResult(
            cfg=self.cfg,
            entry_state=self.entry_state,
            states=states,
            steps=self.steps,
        )


# ---------------------------------------------------------------------------
# The family store and the engine
# ---------------------------------------------------------------------------

#: One successor edge of a parameter-dependent node, as
#: ``(fn, compiled, key, dst, edge)``: ``compiled`` and ``key`` are set
#: when the edge's step must be looked up per abstraction, and ``fn``
#: holds the step otherwise (``None`` on epsilon edges).
_Entry = Tuple[object, object, Hashable, int, object]


class KernelStore:
    """What the compiled engines of one client family share.

    * ``codec`` — one :class:`StateCodec`, so its encode/decode memos
      and its lowered parameter-free effects serve every sibling;
    * ``steps`` — lowered ``int -> int`` steps keyed by
      ``(table_key(command), specialisation_key(p))``.  By the
      ``table_key`` contract equal keys mean equal tables, so equal
      step keys mean equal steps, whichever sibling lowered them;
    * the edge-table template, built by the first engine that runs
      (see :meth:`KernelEngine.edge_table`): ``template`` resolves
      every node whose steps do not depend on the abstraction, as the
      builder sees them; ``params`` holds the edges (:data:`_Entry`
      tuples) of the parameter-dependent nodes with no key-varying
      edge, indexed by the parameter primitives their footprints
      consult (``prims``, ``index``; ``dynamic`` lists nodes of
      unknown footprint); ``varying`` records ``(command, table key)``
      of each key-varying edge as the builder saw it, per node, and
      ``varying_params`` the edges of such nodes that were
      parameter-dependent for the builder;
    * ``last`` — ``(p, primitive values, table)``: the template with
      ``params`` resolved under the abstraction derived last.

    A store lives exactly as long as the clients holding it (there is
    no global registry), so a family's lowered steps go with it.
    """

    __slots__ = (
        "codec",
        "steps",
        "template",
        "params",
        "prims",
        "index",
        "dynamic",
        "varying",
        "varying_params",
        "last",
        "__weakref__",
    )

    def __init__(self, codec: StateCodec):
        self.codec = codec
        self.steps: Dict[Tuple[Hashable, object], Callable[[int], int]] = {}
        self.template: Optional[EdgeTable] = None
        self.params: Dict[int, Tuple[_Entry, ...]] = {}
        self.prims: Tuple[object, ...] = ()
        self.index: Tuple[Tuple[int, ...], ...] = ()
        self.dynamic: Tuple[int, ...] = ()
        self.varying: Dict[int, Tuple[Tuple[object, Hashable], ...]] = {}
        self.varying_params: Dict[int, Tuple[_Entry, ...]] = {}
        self.last: Optional[Tuple[object, tuple, EdgeTable]] = None


class KernelEngine:
    """Drop-in replacement for :class:`CollectingEngine` running the
    worklist over bitset-encoded states.

    Wraps the client's existing engine: steps that are not the bound
    ``BoundStep`` of this engine's semantics (or entry states the codec
    refuses) delegate to the wrapped engine unchanged.  Lowered steps
    and the edge-table template come from the family's
    :class:`KernelStore` (which must be over this engine's CFG); the
    ``kernel.<client>`` counters are this engine's own (a miss is one
    lowering, a hit one step found in the store).
    """

    def __init__(self, inner, store: KernelStore, semantics):
        self.inner = inner
        self.cfg = inner.cfg
        self.store = store
        self.codec = store.codec
        self.semantics = semantics
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0
        #: This client's own nodes, built on the first run: the nodes
        #: with a key-varying edge, as ``(node, rows, dispatch)`` when
        #: independent of the abstraction, else ``(node, entries)``.
        self._fixed: Optional[Tuple[Tuple[int, tuple, tuple], ...]] = None
        self._params: Tuple[Tuple[int, Tuple[_Entry, ...]], ...] = ()
        obs_metrics.register_cache(f"kernel.{semantics.metrics_name}", self)

    def _step(self, compiled, key, p, command) -> Callable[[int], int]:
        """The lowered (or fallback) step of the table stored under
        ``key``, specialised to ``p``, from the family store."""
        if compiled._all_identity:
            return _identity_step
        step_key = (key, compiled.specialisation_key(p))
        steps = self.store.steps
        fn = steps.get(step_key)
        if fn is not None:
            self.hits += 1
            return fn
        self.misses += 1
        with obs.span(
            "kernel_compile",
            phase="forward",
            client=self.semantics.metrics_name,
            command=str(command),
        ) as span:
            try:
                fn = lower_command(compiled, self.codec, p)
                span.set(fallback=False)
            except KernelFallback as reason:
                inner = compiled.bind(p)
                codec = self.codec

                def fn(bits, _inner=inner, _codec=codec):
                    return _codec.encode(_inner(_codec.decode(bits)))

                span.set(fallback=True, reason=str(reason))
                self.fallbacks += 1
        steps[step_key] = fn
        return fn

    def bound_step(self, command, p) -> Callable[[int], int]:
        """The compiled (or fallback) ``int -> int`` step for one
        command under abstraction ``p``."""
        semantics = self.semantics
        return self._step(
            semantics.compiled(command), semantics.table_key(command), p, command
        )

    def _entries(self, node: int, p) -> Tuple[Tuple[_Entry, ...], bool]:
        """``node``'s successor edges as :data:`_Entry` tuples, in CFG
        order, with every step that does not depend on the abstraction
        already resolved; and whether any step does."""
        semantics = self.semantics
        entries = []
        dependent = False
        for edge in self.cfg.successors(node):
            command = edge.command
            if command is None:
                entries.append((None, None, None, edge.dst, edge))
                continue
            compiled = semantics.compiled(command)
            key = semantics.table_key(command)
            if compiled._param_prims != ():
                # The footprint is non-empty or unknown.
                dependent = True
                entries.append((None, compiled, key, edge.dst, edge))
            else:
                fn = self._step(compiled, key, p, command)
                entries.append((fn, None, None, edge.dst, edge))
        return tuple(entries), dependent

    def _rows(self, entries: Tuple[_Entry, ...], p) -> tuple:
        step = self._step
        return tuple(
            (
                fn if compiled is None else step(compiled, key, p, edge.command),
                dst,
                edge,
            )
            for fn, compiled, key, dst, edge in entries
        )

    def _build_template(self, p) -> None:
        """Fill the store's template from this engine's semantics."""
        store = self.store
        cfg = self.cfg
        varies = self.semantics.key_varies_by_sibling
        resolved = [self._entries(node, p) for node in range(cfg.node_count)]
        template = EdgeTable(
            cfg,
            tuple(
                sum(1 for entry in entries if entry[4].command is not None)
                for entries, _dependent in resolved
            ),
        )
        index: Dict[object, List[int]] = {}
        dynamic = []
        for node, (entries, dependent) in enumerate(resolved):
            keyed = tuple(
                (edge.command, key)
                for _fn, _compiled, key, _dst, edge in entries
                if edge.command is not None and varies(edge.command)
            )
            if keyed:
                store.varying[node] = keyed
                if dependent:
                    store.varying_params[node] = entries
            elif dependent:
                store.params[node] = entries
                for _fn, compiled, _key, _dst, _edge in entries:
                    if compiled is None:
                        continue
                    if compiled._param_prims is None:
                        dynamic.append(node)
                        break
                    for prim in compiled._param_prims:
                        nodes = index.setdefault(prim, [])
                        if not nodes or nodes[-1] != node:
                            nodes.append(node)
            if not dependent:
                template.set_node(node, self._rows(entries, p))
        store.prims = tuple(index)
        store.index = tuple(tuple(nodes) for nodes in index.values())
        store.dynamic = tuple(dynamic)
        store.template = template

    def _own_nodes(self, p) -> None:
        """This client's own nodes, among those with a key-varying
        edge: the ones whose keys differ from the template builder's,
        resolved for this client, and the ones whose steps depend on
        the abstraction, left for :meth:`edge_table` to resolve."""
        store = self.store
        if store.template is None:
            self._build_template(p)
        table_key = self.semantics.table_key
        fixed = []
        params = []
        for node, keyed in store.varying.items():
            if all(table_key(command) == key for command, key in keyed):
                entries = store.varying_params.get(node)
                if entries is not None:
                    params.append((node, entries))
                continue
            entries, dependent = self._entries(node, p)
            if dependent:
                params.append((node, entries))
            else:
                rows = self._rows(entries, p)
                fixed.append((node, rows, _node_dispatch(node, rows)))
        self._fixed = tuple(fixed)
        self._params = tuple(params)

    def _family_table(self, p) -> EdgeTable:
        """The template with the shared parameter-dependent nodes
        resolved under ``p``, derived from the family's last such table
        by re-resolving only the nodes whose footprint changed: those
        consulting a primitive whose value differs between the two
        abstractions, and those of unknown footprint."""
        store = self.store
        last = store.last
        if last is not None and last[0] == p:
            return last[2]
        holds = self.semantics.binding.theory.holds
        values = tuple(holds(prim, p, None) for prim in store.prims)
        if last is None:
            table = store.template
            nodes = sorted(store.params)
        else:
            table = last[2]
            changed = set(store.dynamic)
            for nodes_of, value, old in zip(store.index, values, last[1]):
                if value != old:
                    changed.update(nodes_of)
            nodes = sorted(changed)
        if nodes:
            table = table.copy()
            params = store.params
            for node in nodes:
                table.set_node(node, self._rows(params[node], p))
        store.last = (p, values, table)
        return table

    def edge_table(self, p) -> EdgeTable:
        """The edge table for abstraction ``p``: the family's table for
        ``p`` with this client's own nodes put in.  Tables are never
        changed once handed out, so results may keep them."""
        if self._fixed is None:
            self._own_nodes(p)
        table = self._family_table(p)
        if not (self._fixed or self._params):
            return table
        table = table.copy()
        for node, rows, dispatch in self._fixed:
            table.set_node(node, rows, dispatch)
        rows_for = self._rows
        for node, entries in self._params:
            table.set_node(node, rows_for(entries, p))
        return table

    def run(self, step, entry_state):
        semantics = getattr(step, "_semantics", None)
        if semantics is not self.semantics:
            return self.inner.run(step, entry_state)
        codec = self.codec
        try:
            entry_bits = codec.encode(entry_state)
        except ValueError:
            return self.inner.run(step, entry_state)
        table = self.edge_table(step._p)
        seen = _run_encoded(table, entry_bits << table.shift | self.cfg.entry)
        result = KernelResult(seen, table, codec, self.cfg, entry_state)
        if obs.active():
            obs.event(
                "kernel_exec",
                client=self.semantics.metrics_name,
                steps=result.steps,
                states=len(seen),
            )
        return result
