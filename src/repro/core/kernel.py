"""The compiled bitset kernel for the forward phase.

The interpreted forward engine applies each guarded-update table by
walking its cases: per state, evaluate guard closures, then run the
matching effect closure — several Python frames per transfer.  For the
finite domains all three bundled clients use, the whole table can
instead be compiled *once per (command, footprint)* into a straight-line
Python function over integer bitsets:

* each abstract state is interned to an integer by the client's
  :class:`~repro.dataflow.bitset.StateCodec`;
* each guard lowers to a disjunction of ``(ones, zeros)`` mask cubes
  (parameter literals fold to constants under the bound abstraction
  ``p``, exactly mirroring ``SemanticsBinding.bind_formula``);
* each effect lowers to a keep-mask plus constant bits, shifted copies,
  per-entry ``MapRead`` tables, and conditional bits for ``BoolExpr``
  writes;
* the rows are emitted as one ``def _kernel_step(s): ...`` source
  string and compiled with :func:`compile`/``exec`` — after which a
  transfer is a single call evaluating a few integer mask expressions.

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
integer add of a precomputed ``dst - node`` delta.  Codecs may
additionally *narrow* their layout per abstraction footprint
(:meth:`~repro.dataflow.bitset.StateCodec.narrow`): under ``p`` the
typestate must-alias set and the provenance site sets provably stay
inside ``p``, so those bit groups vanish from the word and every mask
op shrinks.  :class:`KernelResult` decodes states, witnesses, and the
step count lazily at the observation API.  Commands whose guards or
effects do not lower (:class:`~repro.dataflow.bitset.KernelFallback`)
fall back to the interpreted bound step for that command only, wrapped
in encode/decode — bit-identity is preserved either way.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.formula import And, Bottom, Formula, Lit, Or, Top
from repro.core.semantics import (
    BoolExpr,
    Const,
    MapRead,
    Read,
    Updates,
    _identity_step,
)
from repro.dataflow.bitset import BOOL, KernelFallback, StateCodec
from repro.dataflow.collecting import CollectingResult, WitnessTrace
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs
from repro.robust import budget as robust_budget

__all__ = ["KernelEngine", "KernelResult", "lower_command"]

#: Guard lowering result: a constant, or a list of ``(ones, zeros)``
#: mask cubes — the guard holds iff some cube has all ``ones`` bits set
#: and all ``zeros`` bits clear.
_Guard = Union[bool, List[Tuple[int, int]]]


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


def _guard_src(cubes: List[Tuple[int, int]]) -> str:
    """Python source testing a lowered guard against local ``s``."""
    tests = []
    for ones, zeros in cubes:
        parts = []
        if ones:
            parts.append(f"(s & {ones:#x}) == {ones:#x}")
        if zeros:
            parts.append(f"not (s & {zeros:#x})")
        tests.append(" and ".join(parts) if parts else "True")
    if len(tests) == 1:
        return tests[0]
    return " or ".join(f"({t})" for t in tests)


# ---------------------------------------------------------------------------
# Effect lowering
# ---------------------------------------------------------------------------


def _effect_src(effect, binding, codec: StateCodec, p, maps_env: Dict) -> str:
    """Python source computing the effect's output word from ``s``.

    Raises :class:`KernelFallback` whenever a write cannot be proven to
    stay inside the layout or a value expression has no mask form.
    """
    if not codec.safe_effect(effect, binding, p):
        raise KernelFallback(f"effect may write outside the layout: {effect!r}")
    keep = 0
    const = 0
    pieces: List[str] = []
    for group in codec.layout.groups:
        expr = effect.value_expr_at(group.location, binding)
        if expr is None:
            keep |= group.mask
        elif isinstance(expr, Const):
            const |= group.value_bits(expr.value)
        elif isinstance(expr, Read):
            src = codec.layout.group(expr.location)
            if src is None:
                const |= group.value_bits(codec.missing_read(expr.location))
            elif src.style == group.style and src.values == group.values:
                if src.shift == group.shift:
                    pieces.append(f"(s & {src.mask:#x})")
                elif group.shift > src.shift:
                    pieces.append(
                        f"((s & {src.mask:#x}) << {group.shift - src.shift})"
                    )
                else:
                    pieces.append(
                        f"((s & {src.mask:#x}) >> {src.shift - group.shift})"
                    )
            else:
                raise KernelFallback(
                    f"incompatible copy {expr.location!r} -> {group.location!r}"
                )
        elif isinstance(expr, MapRead):
            mapping = dict(expr.mapping)
            src = codec.layout.group(expr.location)
            if src is None:
                value = codec.missing_read(expr.location)
                if value not in mapping:
                    raise KernelFallback(f"non-total MapRead: {expr!r}")
                const |= group.value_bits(mapping[value])
            else:
                table: Dict[int, int] = {}
                for value in src.domain():
                    if value not in mapping:
                        raise KernelFallback(f"non-total MapRead: {expr!r}")
                    table[src.local_code(value)] = group.value_bits(
                        mapping[value]
                    )
                name = f"_M{len(maps_env)}"
                maps_env[name] = table
                if src.shift:
                    pieces.append(
                        f"{name}[(s >> {src.shift}) & {src.local_mask:#x}]"
                    )
                else:
                    pieces.append(f"{name}[s & {src.local_mask:#x}]")
        elif isinstance(expr, BoolExpr):
            if group.style != BOOL:
                raise KernelFallback(
                    f"BoolExpr write to non-bool group {group.location!r}"
                )
            lowered = _lower_guard(expr.formula, binding, codec, p)
            if lowered is True:
                const |= group.mask
            elif lowered is not False:
                pieces.append(
                    f"({group.mask:#x} if {_guard_src(lowered)} else 0)"
                )
        else:
            raise KernelFallback(f"cannot lower value expression: {expr!r}")
    if keep == codec.layout.full_mask:
        # Every group is kept: the effect is the identity on canonical
        # (layout-only-bits) words, which is all the worklist ever holds.
        return "s"
    if keep:
        pieces.insert(0, f"(s & {keep:#x})")
    if const:
        pieces.append(f"{const:#x}")
    return " | ".join(pieces) if pieces else "0"


# ---------------------------------------------------------------------------
# Per-command compilation
# ---------------------------------------------------------------------------


def lower_command(compiled, codec: StateCodec, p) -> Callable[[int], int]:
    """Compile one command's case table into an ``int -> int`` step.

    Mirrors ``CompiledCommand._compile_bound`` row for row: cases whose
    guards fold to ``False`` under ``p`` are dropped, the table is
    truncated at the first ``True`` guard, and the last surviving guard
    is elided (tables are checked total at construction).  Raises
    :class:`KernelFallback` when any surviving row resists lowering.
    """
    binding = compiled.binding
    rows: List[Tuple[Optional[List[Tuple[int, int]]], object]] = []
    for case in compiled.cases:
        guard = _lower_guard(case.guard, binding, codec, p)
        if guard is False:
            continue
        rows.append((None if guard is True else guard, case.effect))
        if guard is True:
            break
    if not rows:
        raise KernelFallback("all guards folded to False (non-total table?)")
    rows[-1] = (None, rows[-1][1])

    maps_env: Dict[str, Dict[int, int]] = {}
    emitted: List[Tuple[Optional[List[Tuple[int, int]]], str]] = []
    for cubes, effect in rows:
        if isinstance(effect, Updates) and not effect.writes:
            emitted.append((cubes, "s"))
        else:
            emitted.append((cubes, _effect_src(effect, binding, codec, p, maps_env)))

    if all(expr == "s" for _cubes, expr in emitted):
        # The whole table folded to the identity under ``p`` (common
        # once narrowing drops the bits a command would have touched):
        # let the worklist treat the edge as an epsilon hop.
        return _identity_step

    lines = ["def _kernel_step(s):"]
    for cubes, expr in emitted[:-1]:
        lines.append(f"    if {_guard_src(cubes)}:")
        lines.append(f"        return {expr}")
    lines.append(f"    return {emitted[-1][1]}")
    namespace: Dict[str, object] = dict(maps_env)
    exec(compile("\n".join(lines), "<repro-kernel>", "exec"), namespace)
    return namespace["_kernel_step"]


class _KernelStep:
    """The ``Step`` protocol object handed to ``run_collecting``: maps
    commands to compiled ``int -> int`` functions for one abstraction."""

    __slots__ = ("_engine", "_p", "_resolved")

    def __init__(self, engine: "KernelEngine", p):
        self._engine = engine
        self._p = p
        self._resolved: Dict[object, Callable[[int], int]] = {}

    def for_command(self, command) -> Callable[[int], int]:
        fn = self._resolved.get(command)
        if fn is None:
            fn = self._resolved[command] = self._engine.bound_step(
                command, self._p
            )
        return fn

    def __call__(self, command, bits: int) -> int:
        return self.for_command(command)(bits)


def _build_edge_cache(cfg, kstep: "_KernelStep") -> Dict[str, object]:
    """Per-``(engine, p)`` successor tables for :func:`_run_encoded`.

    ``full`` keeps every original edge in order — witness and ``steps``
    reconstruction need them.  The loop dispatches on three parallel
    per-node arrays, ordered by measured pop frequency:

    * ``fns[node]``/``dsts[node]`` — the node has exactly one compiled
      transfer successor (``fns`` is ``None`` otherwise);
    * ``deltas[node]`` — exactly one epsilon/identity successor, stored
      as the packed-key delta ``dst - node`` (``None`` otherwise);
    * ``rest[node]`` — everything else: a tuple of deltas, or a list
      mixing deltas and ``(fn, dst)`` pairs (empty for exit nodes).

    Identity steps (including whole tables that fold to the identity
    under ``p``) become deltas, and later duplicate ``(dst, fn)`` rows
    are dropped: in the interpreted loop such a row always finds its
    output already present (the earlier identical row inserted it in
    the same pop), so eliding it changes no insertion, no witness, and
    no pop — only the per-pop work.
    """
    resolve = kstep.for_command
    fns: List[object] = []
    dsts: List[int] = []
    deltas: List[Optional[int]] = []
    rest: List[object] = []
    full: List[Tuple] = []
    counts: List[int] = []
    for node in range(cfg.node_count):
        frows = []
        count = 0
        for edge in cfg.successors(node):
            if edge.command is None:
                fn = None
            else:
                fn = resolve(edge.command)
                count += 1
            frows.append((fn, edge.dst, edge))
        full.append(tuple(frows))
        counts.append(count)
        entries: List[object] = []
        markers = set()
        for fn, dst, _edge in frows:
            if fn is _identity_step:
                fn = None
            marker = (dst, None if fn is None else id(fn))
            if marker in markers:
                continue
            markers.add(marker)
            entries.append(dst - node if fn is None else (fn, dst))
        if len(entries) == 1 and type(entries[0]) is tuple:
            fns.append(entries[0][0])
            dsts.append(entries[0][1])
            deltas.append(None)
            rest.append(())
        elif len(entries) == 1:
            fns.append(None)
            dsts.append(0)
            deltas.append(entries[0])
            rest.append(())
        elif entries and all(type(entry) is int for entry in entries):
            fns.append(None)
            dsts.append(0)
            deltas.append(None)
            rest.append(tuple(entries))
        else:
            fns.append(None)
            dsts.append(0)
            deltas.append(None)
            rest.append(entries)
    shift = max(1, cfg.node_count - 1).bit_length()
    return {
        "fns": fns,
        "dsts": dsts,
        "deltas": deltas,
        "rest": rest,
        "full": tuple(full),
        "counts": tuple(counts),
        "shift": shift,
        "mask": (1 << shift) - 1,
    }


def _run_encoded(cache: Dict[str, object], entry_key: int) -> Dict[int, Optional[int]]:
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
    fns = cache["fns"]
    dsts = cache["dsts"]
    deltas = cache["deltas"]
    rest = cache["rest"]
    shift = cache["shift"]
    mask = cache["mask"]
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
    """

    __slots__ = (
        "codec",
        "cfg",
        "entry_state",
        "_seen",
        "_cache",
        "_steps",
        "_tables",
        "_by_node",
    )

    def __init__(self, seen, cache, codec: StateCodec, cfg, entry_state):
        self._seen = seen
        self._cache = cache
        self.codec = codec
        self.cfg = cfg
        self.entry_state = entry_state
        self._steps: Optional[int] = None
        self._tables: Optional[Dict[int, Dict[int, Optional[int]]]] = None
        self._by_node: Dict[int, Dict[object, int]] = {}

    @property
    def steps(self) -> int:
        """Transfer applications, recovered exactly: each recorded
        state is popped once, and a pop applies every non-epsilon edge
        of its node once."""
        if self._steps is None:
            counts = self._cache["counts"]
            mask = self._cache["mask"]
            self._steps = sum(counts[key & mask] for key in self._seen)
        return self._steps

    def _node_tables(self) -> Dict[int, Dict[int, Optional[int]]]:
        tables = self._tables
        if tables is None:
            shift = self._cache["shift"]
            mask = self._cache["mask"]
            tables = self._tables = {}
            for key, pred in self._seen.items():
                node = key & mask
                table = tables.get(node)
                if table is None:
                    table = tables[node] = {}
                table[key >> shift] = pred
        return tables

    def _witness_edge(self, pred_node: int, pred_bits: int, node: int, bits: int):
        """The edge that first derived ``(node, bits)`` from the
        predecessor pop: the first successor edge mapping
        ``pred_bits`` to ``bits`` at ``dst == node`` — any earlier
        matching edge would have performed the insertion instead, in
        this engine and the interpreted one alike."""
        for fn, dst, edge in self._cache["full"][pred_node]:
            if dst == node and (pred_bits if fn is None else fn(pred_bits)) == bits:
                return edge
        raise AssertionError(
            f"no witness edge from node {pred_node} to {node}"
        )

    def _node_table(self, node: int) -> Dict[object, int]:
        table = self._by_node.get(node)
        if table is None:
            decode = self.codec.decode
            table = self._by_node[node] = {
                decode(bits): bits
                for bits in self._node_tables().get(node, ())
            }
        return table

    def states_at(self, node: int) -> Tuple[object, ...]:
        return tuple(sorted(self._node_table(node), key=repr))

    def exit_states(self) -> Tuple[object, ...]:
        return self.states_at(self.cfg.exit)

    def states_before_observe(self, label: str):
        out: List[Tuple[int, object]] = []
        for edge_label, edges in self.cfg.observe_edges().items():
            if edge_label != label:
                continue
            for edge in edges:
                for state in self.states_at(edge.src):
                    out.append((edge.src, state))
        return tuple(out)

    def trace_to(self, node: int, state: object) -> WitnessTrace:
        """Witness trace for a decoded state: re-encode via the node
        table (``KeyError`` when never derived, like the interpreted
        result), walk the packed witness links, and decode the state
        before each command."""
        shift = self._cache["shift"]
        mask = self._cache["mask"]
        decode = self.codec.decode
        bits = self._node_table(node)[state]
        seen = self._seen
        commands: List[object] = []
        states = [state]
        key = bits << shift | node
        while True:
            pred = seen[key]
            if pred is None:
                break
            pred_node = pred & mask
            pred_bits = pred >> shift
            edge = self._witness_edge(pred_node, pred_bits, key & mask, key >> shift)
            if edge.command is not None:
                commands.append(edge.command)
                states.append(decode(pred_bits))
            key = pred
        commands.reverse()
        states.reverse()
        return WitnessTrace(commands, tuple(states))

    def materialize(self) -> CollectingResult:
        """Eagerly decode everything into a plain
        :class:`CollectingResult` (tests compare engines through this)."""
        shift = self._cache["shift"]
        mask = self._cache["mask"]
        decode = self.codec.decode
        states: Dict[int, Dict[object, object]] = {}
        for node, table in self._node_tables().items():
            out: Dict[object, object] = {}
            for bits, pred in table.items():
                if pred is None:
                    out[decode(bits)] = None
                else:
                    pred_node = pred & mask
                    pred_bits = pred >> shift
                    edge = self._witness_edge(pred_node, pred_bits, node, bits)
                    out[decode(bits)] = (pred_node, decode(pred_bits), edge)
            states[node] = out
        return CollectingResult(
            cfg=self.cfg,
            entry_state=self.entry_state,
            states=states,
            steps=self.steps,
        )


#: Mirrors ``engines._MAX_STEP_CACHES``: bound on per-step edge caches
#: and on per-footprint narrowed sub-engines.
_MAX_STEP_CACHES = 256


class KernelEngine:
    """Drop-in replacement for :class:`CollectingEngine` running the
    worklist over bitset-encoded states.

    Wraps the client's existing engine: steps that are not the bound
    ``BoundStep`` of this engine's semantics (or entry states the codec
    refuses) delegate to the wrapped engine unchanged.  Compiled
    ``int -> int`` steps are cached per ``(command,
    specialisation_key(p))`` — the same footprint key the interpreted
    specialisation cache uses, so abstractions agreeing on a command's
    parameter footprint share one compiled function.
    """

    def __init__(self, inner, codec: StateCodec, semantics, _parent=None):
        self.inner = inner
        self.cfg = inner.cfg
        self.codec = codec
        self.semantics = semantics
        self._root: "KernelEngine" = self if _parent is None else _parent
        self._bound: Dict[Tuple[object, object], Callable[[int], int]] = {}
        self._steps: Dict[object, _KernelStep] = {}
        self._edge_caches: Dict[_KernelStep, Dict] = {}
        if _parent is None:
            self.hits = 0
            self.misses = 0
            self.fallbacks = 0
            self._narrowed: Dict[object, "KernelEngine"] = {}
            self._prepared: Dict[object, Tuple[StateCodec, Dict]] = {}
            obs_metrics.register_cache(f"kernel.{semantics.metrics_name}", self)

    def bound_step(self, command, p) -> Callable[[int], int]:
        """The compiled (or fallback) ``int -> int`` step for one
        command under abstraction ``p``."""
        root = self._root
        compiled = self.semantics.compiled(command)
        if compiled._all_identity:
            return _identity_step
        key = (command, compiled.specialisation_key(p))
        fn = self._bound.get(key)
        if fn is not None:
            root.hits += 1
            return fn
        root.misses += 1
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
                root.fallbacks += 1
        self._bound[key] = fn
        return fn

    def _for_footprint(self, p) -> "KernelEngine":
        """The engine whose codec layout matches ``p``: ``self`` when
        the codec does not narrow, else a cached sub-engine built over
        ``codec.narrow(p)``.  Sub-engines share the root's counters and
        skip metrics registration; their compiled-step caches stay
        keyed by the same footprint keys, which is sound because every
        abstraction reaching one sub-engine shares its narrow key."""
        narrow_key = self.codec.narrow_key(p)
        if narrow_key is None:
            return self
        engine = self._narrowed.get(narrow_key)
        if engine is None:
            if len(self._narrowed) > _MAX_STEP_CACHES:
                self._narrowed.clear()
            engine = self._narrowed[narrow_key] = KernelEngine(
                self.inner, self.codec.narrow(p), self.semantics, _parent=self
            )
        return engine

    def _prepare(self, p) -> Tuple[StateCodec, Dict]:
        """Resolve, once per abstraction, everything ``run`` needs on
        the hot path: the (possibly narrowed) codec and the built edge
        cache.  Cached at the root keyed by ``p`` itself."""
        engine = self._for_footprint(p)
        kstep = engine._steps.get(p)
        if kstep is None:
            kstep = engine._steps[p] = _KernelStep(engine, p)
        cache = engine._edge_caches.get(kstep)
        if cache is None:
            if len(engine._edge_caches) > _MAX_STEP_CACHES:
                engine._edge_caches.clear()
            cache = engine._edge_caches[kstep] = _build_edge_cache(
                engine.cfg, kstep
            )
        if len(self._prepared) > _MAX_STEP_CACHES:
            self._prepared.clear()
        prepared = self._prepared[p] = (engine.codec, cache)
        return prepared

    def run(self, step, entry_state):
        semantics = getattr(step, "_semantics", None)
        if semantics is not self.semantics:
            return self.inner.run(step, entry_state)
        p = step._p
        prepared = self._prepared.get(p)
        if prepared is None:
            prepared = self._prepare(p)
        codec, cache = prepared
        try:
            entry_bits = codec.encode(entry_state)
        except ValueError:
            return self.inner.run(step, entry_state)
        entry_key = entry_bits << cache["shift"] | self.cfg.entry
        seen = _run_encoded(cache, entry_key)
        result = KernelResult(seen, cache, codec, self.cfg, entry_state)
        if obs.active():
            obs.event(
                "kernel_exec",
                client=self.semantics.metrics_name,
                steps=result.steps,
                states=len(seen),
            )
        return result
