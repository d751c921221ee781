"""The backward meta-analysis ``B[t]`` (Figure 7, Section 4).

Given a trace ``t`` on which the forward analysis instantiated with
abstraction ``p`` failed to prove a query, the meta-analysis propagates
a *sufficient condition for failure* backwards through ``t``.  The
resulting formula ``B[t](p, dI, not(q))`` denotes a set of pairs
``(p', d')`` such that running the ``p'``-instance from ``d'`` along
``t`` is guaranteed to end in a state violating the query
(Theorem 3.2); and it always contains the current ``(p, dI)``
(Theorem 3.1), so at least the current abstraction is eliminated.

Each backward step is ``approx(p, d, [[a]]b(f))``:

* ``[[a]]b`` is the weakest precondition of the forward transfer
  function.  Transfer functions are total and deterministic, so wp is a
  boolean homomorphism and clients only supply wp on *primitive*
  formulas (:meth:`BackwardMetaAnalysis.wp_primitive`).
* ``approx`` is the generic under-approximation of Section 4.1:
  DNF-normalise, ``simplify``, then ``drop_k`` with beam width ``k``,
  always retaining a disjunct containing the current ``(p, d)``.

Setting ``k = None`` disables the beam (the "without
under-approximation" mode of Figure 6(a)).

:func:`backward_trace` runs its steps on the theory's interned
bit-mask cubes (:class:`~repro.core.formula.CubeUniverse`), with each
``wp(prim)`` and ``not wp(prim)`` lowered to a mask DNF once per
(table key, literal) beside the wp memo, and each command's sorted,
simplified cube product kept there per input condition
(:meth:`BackwardMetaAnalysis.wp_step`).  Sibling metas over one theory
may share the memo (:meth:`BackwardMetaAnalysis.share_wp_memo`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Dict, Hashable, Optional, Tuple

from repro.core.formula import (
    CubeUniverse,
    Dnf,
    Formula,
    Info,
    Theory,
    drop_k,
    drop_k_cubes,
    evaluate,
    evaluate_cube,
    mask_bits,
    neg,
    simplify,
    to_dnf,
    _check_budget,
)
from repro.core.lru import LruCache
from repro.core.parametric import ParametricAnalysis
from repro.lang.ast import AtomicCommand, Trace
from repro.obs import metrics as obs_metrics
from repro.robust import budget as robust_budget

#: Default bound on the cubes live at any point of one backward pass,
#: shared with ``TracerConfig.max_cubes``.
MAX_CUBES = 200_000

#: Bound on the cube products one wp memo entry keeps; past it the
#: entry's products are cleared.
PRODUCTS_PER_COMMAND = 256


def _wp_counters(meta: "BackwardMetaAnalysis"):
    from repro.core.stats import CacheCounters

    return CacheCounters(hits=meta.wp_hits, misses=meta.wp_misses)


class BackwardMetaAnalysis:
    """Client interface: the theory plus primitive weakest preconditions."""

    theory: Theory

    def wp_primitive(self, command: AtomicCommand, prim) -> Formula:
        """The weakest precondition of ``[[command]]p`` w.r.t. ``prim``.

        Must satisfy requirement (2) of Section 4:
        ``gamma(wp(prim)) = {(p, d) | (p, [[command]]p(d)) in gamma(prim)}``.
        """
        raise NotImplementedError

    #: Bound on the wp memo, in table keys; eviction is LRU, one key
    #: at a time.
    WP_CACHE_SIZE = 200_000

    #: Memo counters, surfaced in the evaluation's cache statistics
    #: through the metrics registry (registered on first memo use
    #: under ``"wp_memo.<metrics_name>"``).
    wp_hits: int = 0
    wp_misses: int = 0

    #: Registry suffix naming this client's wp memo; concrete meta
    #: bindings override it (``"typestate"``, ``"escape"``, ...).
    metrics_name: str = "meta"

    #: ``table_key`` -> :class:`_CommandWp`; created on first use unless
    #: :meth:`share_wp_memo` installed a sibling's.
    _wp_cache: Optional[LruCache] = None
    #: ``id(command)`` -> ``(command, entry)``: each command object's wp
    #: memo entry, found without ``table_key`` or the LRU.  Holding the
    #: command keeps its ``id`` from being recycled; cleared past
    #: ``WP_CACHE_SIZE`` commands.
    _by_command: Optional[Dict[int, Tuple[AtomicCommand, "_CommandWp"]]] = None
    #: Whether the memo counters are registered; once per meta, also
    #: when the memo itself is shared.
    _wp_registered: bool = False

    def table_key(self, command: AtomicCommand) -> Hashable:
        """The key of ``command``'s wp memo entry: the command itself by
        default.  Metas derived from a :class:`GuardedSemantics` return
        its :meth:`~repro.core.semantics.GuardedSemantics.table_key`, so
        that commands with equal tables share one entry."""
        return command

    def share_wp_memo(self, sibling: "BackwardMetaAnalysis") -> None:
        """Use ``sibling``'s wp memo from now on.  Sound only when both
        metas share one theory (the memo's lowered DNFs live on its
        :class:`CubeUniverse`) and map equal table keys to equal
        weakest preconditions."""
        if sibling.theory is not self.theory:
            raise ValueError("metas sharing a wp memo must share one theory")
        if sibling._wp_cache is None:
            sibling._wp_cache = LruCache(sibling.WP_CACHE_SIZE)
        self._wp_cache = sibling._wp_cache
        self._by_command = None

    def wp_cached(self, command: AtomicCommand, prim) -> Formula:
        """Memoised :meth:`wp_primitive` — the same (command, primitive)
        pairs recur along every trace and TRACER iteration."""
        return self._wp_formula(self._wp_record(command), command, prim)

    def wp_factors(
        self, command: AtomicCommand, literals: int, max_cubes: Optional[int]
    ) -> Optional[Dict[int, Dict[int, Info]]]:
        """The weakest preconditions of the literals in the mask
        ``literals`` that ``command`` changes, as mask DNFs by bit:
        ``wp(prim)`` for a positive literal, ``not wp(prim)`` for a
        negative one.  ``None`` when ``command`` leaves every one of
        those literals unchanged (each maps to itself).

        Each literal is lowered once per table key, into the key's
        wp memo entry, which also keeps the peak cube count of the
        conversion: a literal whose peak exceeds ``max_cubes`` raises
        :class:`FormulaExplosion`."""
        record = self._command_wp(command)
        changed = self._lowered(record, command, literals, max_cubes)
        if not changed:
            return None
        self._refresh(record)
        factors, peak = self._factors(record, changed)
        _check_budget(peak, max_cubes)
        return factors

    def wp_step(
        self,
        command: AtomicCommand,
        cubes: Tuple[int, ...],
        literals: int,
        max_cubes: Optional[int],
    ) -> Optional[Tuple[Tuple[int, ...], int]]:
        """The weakest precondition under ``command`` of the mask DNF
        ``cubes``, whose literals are the mask ``literals``: its cubes
        sorted and simplified, and the number ``simplify`` dropped.
        ``None`` when ``command`` changes none of ``literals``, which
        costs two mask tests once they are lowered.

        The result is kept in ``command``'s wp memo entry, keyed by
        ``cubes``, with the largest number of cubes live while it was
        computed (the lowered factors' peaks included): a kept result
        whose peak exceeds ``max_cubes`` raises
        :class:`FormulaExplosion`, as computing it again would."""
        record = self._command_wp(command)
        changed = self._lowered(record, command, literals, max_cubes)
        if not changed:
            return None
        universe = self._refresh(record)
        product = record.products.get(cubes)
        if product is None:
            factors, peak = self._factors(record, changed)
            _check_budget(peak, max_cubes)
            pre, live = universe.substitute(cubes, factors, max_cubes)
            ordered = universe.sort(pre)
            kept = universe.simplify(ordered, pre)
            product = (tuple(kept), len(ordered) - len(kept), max(peak, live))
            if len(record.products) >= PRODUCTS_PER_COMMAND:
                record.products = {}
            record.products[cubes] = product
        else:
            _check_budget(product[2], max_cubes)
        return product[0], product[1]

    def _command_wp(self, command: AtomicCommand) -> "_CommandWp":
        """``command``'s wp memo entry, by identity when seen before."""
        by_command = self._by_command
        if by_command is None:
            by_command = self._by_command = {}
        known = by_command.get(id(command))
        if known is not None and known[0] is command:
            return known[1]
        record = self._wp_record(command)
        if len(by_command) >= self.WP_CACHE_SIZE:
            by_command.clear()
        by_command[id(command)] = (command, record)
        return record

    def _lowered(
        self,
        record: "_CommandWp",
        command: AtomicCommand,
        literals: int,
        max_cubes: Optional[int],
    ) -> int:
        """Lower the literals of ``literals`` that ``record`` lacks,
        count a memo hit for each of the others, and return those
        among ``literals`` that ``command`` changes."""
        missing = literals & ~record.lowered
        if missing:
            universe = self.theory.universe()
            for bit in mask_bits(missing):
                literal = universe.literals[bit]
                formula = self._wp_formula(record, command, literal.prim)
                pre = formula if literal.positive else neg(formula)
                factor, peak = universe.dnf(pre, max_cubes)
                record.lowered |= 1 << bit
                # Only the literals the command changes keep a DNF: the
                # rest map to themselves.
                if len(factor) != 1 or (1 << bit) not in factor:
                    record.factors[bit] = (factor, peak)
                    record.changed |= 1 << bit
        self.wp_hits += bin(literals ^ missing).count("1")
        return literals & record.changed

    def _refresh(self, record: "_CommandWp") -> CubeUniverse:
        """Bring ``record`` up to the universe's epoch: recompute its
        factors' Info and drop its products.  Returns the universe."""
        universe = self.theory.universe()
        if record.epoch != universe.epoch:
            record.factors = {
                bit: ({mask: universe.info(mask) for mask in factor}, peak)
                for bit, (factor, peak) in record.factors.items()
            }
            record.products = {}
            record.epoch = universe.epoch
        return universe

    @staticmethod
    def _factors(
        record: "_CommandWp", changed: int
    ) -> Tuple[Dict[int, Dict[int, Info]], int]:
        """The lowered DNFs of the literals ``changed``, and the largest
        peak among their conversions."""
        factors = {}
        peak = 0
        for bit in mask_bits(changed):
            factor, lowered_peak = record.factors[bit]
            factors[bit] = factor
            peak = max(peak, lowered_peak)
        return factors, peak

    def _wp_record(self, command: AtomicCommand) -> "_CommandWp":
        if not self._wp_registered:
            self._wp_registered = True
            obs_metrics.register_cache(
                f"wp_memo.{self.metrics_name}", self, _wp_counters
            )
        cache = self._wp_cache
        if cache is None:
            cache = self._wp_cache = LruCache(self.WP_CACHE_SIZE)
        key = self.table_key(command)
        record = cache.get(key)
        if record is None:
            record = _CommandWp()
            cache.put(key, record)
        return record

    def _wp_formula(self, record: "_CommandWp", command: AtomicCommand, prim) -> Formula:
        formula = record.formulas.get(prim)
        if formula is None:
            self.wp_misses += 1
            formula = record.formulas[prim] = self.wp_primitive(command, prim)
        else:
            self.wp_hits += 1
        return formula


class _CommandWp:
    """The wp memo entry of one command: each primitive's wp formula,
    the lowered mask DNF, with the peak cube count of its conversion,
    of each literal the command changes, and the cube products of
    :meth:`BackwardMetaAnalysis.wp_step`."""

    __slots__ = ("formulas", "factors", "lowered", "changed", "products", "epoch")

    def __init__(self):
        self.formulas: Dict[object, Formula] = {}
        #: bit -> (mask DNF, peak)
        self.factors: Dict[int, Tuple[Dict[int, Info], int]] = {}
        #: The literals lowered so far, and those among them the
        #: command changes (whose wp is not the literal itself, and
        #: which alone have ``factors``).
        self.lowered = 0
        self.changed = 0
        #: input cubes -> (sorted simplified product, subsumption
        #: drops, peak live cubes); at most ``PRODUCTS_PER_COMMAND``.
        self.products: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int, int]] = {}
        #: The universe epoch the ``factors``' Info and the
        #: ``products`` were computed in.
        self.epoch = 0



@dataclass
class MetaResult:
    """The outcome of one backward pass over a counterexample trace."""

    condition: Dnf
    """``B[t](p, dI, not(q))`` — sufficient condition for failure."""

    intermediate: Tuple[Dnf, ...]
    """Backward states at every trace point, ``intermediate[i]`` holding
    before command ``i`` (so ``intermediate[0]`` is ``condition`` and
    ``intermediate[-1]`` is the normalised post-condition)."""

    max_disjuncts: int
    """Largest number of disjuncts in any *tracked* (post-``approx``)
    formula — the formula-compactness statistic Figure 6 is about."""

    subsumption_drops: int = 0
    """Cubes removed by ``simplify`` (subsumption/merging) over the
    whole backward pass — how much work the normalisation saved."""

    beam_prunes: int = 0
    """Cubes removed by the ``drop_k`` beam over the whole pass — how
    aggressively the under-approximation narrowed the formula."""


def approx(
    dnf: Dnf,
    theory: Theory,
    p: object,
    d: object,
    k: Optional[int],
    stats: Optional[dict] = None,
) -> Dnf:
    """``approx(p, d, f)`` of Section 4.1: simplify, then beam-prune.

    When ``stats`` is given, the cubes dropped by each stage are
    accumulated into its ``"subsumption_drops"`` / ``"beam_prunes"``
    keys (the per-pass telemetry behind the trace's backward spans)."""
    simplified = simplify(dnf, theory)
    if stats is not None:
        stats["subsumption_drops"] += len(dnf.cubes) - len(simplified.cubes)
    if k is None:
        return simplified
    pruned = drop_k(
        simplified, k, lambda cube: evaluate_cube(cube, theory, p, d)
    )
    if stats is not None:
        stats["beam_prunes"] += len(simplified.cubes) - len(pruned.cubes)
    return pruned


def forward_states(
    analysis: ParametricAnalysis, trace: Trace, p: object, d_init: object
) -> Tuple[object, ...]:
    """The forward states ``d0 .. dn`` along ``trace`` from ``d_init``:
    the ones a witness trace carries
    (:class:`~repro.dataflow.collecting.WitnessTrace`), else replayed
    through ``analysis.trace_states``."""
    states = getattr(trace, "states", None)
    if states is None:
        states = analysis.trace_states(trace, p, d_init)
    return states


def backward_trace(
    meta: BackwardMetaAnalysis,
    analysis: ParametricAnalysis,
    trace: Trace,
    p: object,
    d_init: object,
    post: Formula,
    k: Optional[int] = 5,
    max_cubes: Optional[int] = MAX_CUBES,
) -> MetaResult:
    """Run ``B[t](p, d_init, post)`` (Figure 7).

    ``post`` is the failure condition at the end of the trace,
    typically ``not(q)``.  ``B[t ; t'](p, d, f) = B[t](p, d, B[t'](p,
    Fp[t](d), f))`` threads the forward states along the trace through
    the fold: a witness trace from the forward run of ``p`` from
    ``d_init`` carries them (:func:`forward_states`), and a bare tuple
    of commands has them replayed.  The weakest precondition is then
    folded backwards with ``approx`` applied at every step.
    ``max_cubes`` bounds the cubes live at any point of a step's DNF
    conversion (``None``: no bound).

    The steps run on the theory's :class:`CubeUniverse`.  A step whose
    command changes none of the current condition's literals leaves it
    as it is, which ``approx`` would too.  Any other step replaces the
    changed literals by their memoised mask DNFs and multiplies them
    out, sorted and simplified, once per (command, condition)
    (:meth:`BackwardMetaAnalysis.wp_step`); ``drop_k`` then prunes the
    result at this step's ``(p, d)``.  The conditions are lifted back
    to :class:`Dnf` values when the pass ends.

    Precondition (checked): ``(p, Fp[t](d_init))`` satisfies ``post`` —
    the trace really is a counterexample.  Guarantee (Theorem 3): the
    returned condition contains ``(p, d_init)``.
    """
    theory = meta.theory
    universe = theory.universe()
    states = forward_states(analysis, trace, p, d_init)
    stats = {"subsumption_drops": 0, "beam_prunes": 0}
    final = to_dnf(post, theory, max_cubes)
    final = approx(final, theory, p, states[-1], k, stats)
    if not evaluate(final, theory, p, states[-1]):
        raise ValueError(
            "backward_trace: the final forward state does not satisfy the "
            "post-condition; the given trace is not a counterexample"
        )
    current = tuple(universe.lower(cube) for cube in final.cubes)
    lifted = {current: final}
    steps = [current]
    max_disjuncts = len(current)
    literals = reduce(or_, current, 0)
    for index in range(len(trace) - 1, -1, -1):
        # One backward command can hide a lot of formula work, so the
        # cooperative budget check here always consults the clock.
        robust_budget.checkpoint()
        step = meta.wp_step(trace[index], current, literals, max_cubes)
        # ``None`` is the fast path: the command leaves every tracked
        # literal unchanged (the common case on long traces), so the
        # weakest precondition is the condition itself.
        if step is not None:
            kept, drops = step
            stats["subsumption_drops"] += drops
            if k is not None:
                pruned = drop_k_cubes(kept, k, universe.evaluator(p, states[index]))
                stats["beam_prunes"] += len(kept) - len(pruned)
                kept = tuple(pruned)
            current = kept
            literals = reduce(or_, current, 0)
            max_disjuncts = max(max_disjuncts, len(current))
        steps.append(current)
    intermediate = []
    for step in reversed(steps):
        dnf = lifted.get(step)
        if dnf is None:
            dnf = lifted[step] = universe.lift_dnf(step)
        intermediate.append(dnf)
    return MetaResult(
        condition=intermediate[0],
        intermediate=tuple(intermediate),
        max_disjuncts=max_disjuncts,
        subsumption_drops=stats["subsumption_drops"],
        beam_prunes=stats["beam_prunes"],
    )
