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
(table key, literal) beside the wp memo.  Sibling metas over one
theory may share the memo (:meth:`BackwardMetaAnalysis.share_wp_memo`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.core.formula import (
    CubeUniverse,
    Dnf,
    Formula,
    FormulaExplosion,
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
)
from repro.core.lru import LruCache
from repro.core.parametric import ParametricAnalysis
from repro.lang.ast import AtomicCommand, Trace
from repro.obs import metrics as obs_metrics
from repro.robust import budget as robust_budget

#: Default bound on the cubes live at any point of one backward pass,
#: shared with ``TracerConfig.max_cubes``.
MAX_CUBES = 200_000


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

    def wp_cached(self, command: AtomicCommand, prim) -> Formula:
        """Memoised :meth:`wp_primitive` — the same (command, primitive)
        pairs recur along every trace and TRACER iteration."""
        return self._wp_formula(self._wp_record(command), command, prim)

    def wp_factors(
        self, command: AtomicCommand, literals: int, max_cubes: Optional[int]
    ) -> Optional[Dict[int, Dict[int, Info]]]:
        """The weakest preconditions of the literals in the mask
        ``literals``, as mask DNFs by bit: ``wp(prim)`` for a positive
        literal, ``not wp(prim)`` for a negative one.  ``None`` when
        ``command`` leaves every one of those literals unchanged.

        Each literal is lowered once per table key, into the key's
        wp memo entry, which also keeps the peak cube count of the
        conversion: a literal whose peak exceeds ``max_cubes`` raises
        :class:`FormulaExplosion`."""
        record = self._wp_record(command)
        universe = self.theory.universe()
        missing = literals & ~record.lowered
        for bit in mask_bits(missing):
            literal = universe.literals[bit]
            formula = self._wp_formula(record, command, literal.prim)
            pre = formula if literal.positive else neg(formula)
            factor, peak = universe.dnf(pre, max_cubes)
            record.lowered |= 1 << bit
            # Only the literals the command changes keep a DNF: the rest
            # map to themselves.
            if len(factor) != 1 or (1 << bit) not in factor:
                record.factors[bit] = (factor, peak)
                record.changed |= 1 << bit
        self.wp_hits += bin(literals & ~missing).count("1")
        changed = literals & record.changed
        if not changed:
            return None
        if record.epoch != universe.epoch:
            record.factors = {
                bit: ({mask: universe.info(mask) for mask in factor}, peak)
                for bit, (factor, peak) in record.factors.items()
            }
            record.epoch = universe.epoch
        factors = {bit: universe.unit(bit) for bit in mask_bits(literals & ~changed)}
        for bit in mask_bits(changed):
            factor, peak = record.factors[bit]
            if max_cubes is not None and peak > max_cubes:
                raise FormulaExplosion(
                    f"DNF conversion produced {peak} cubes (budget {max_cubes})"
                )
            factors[bit] = factor
        return factors

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
    and the lowered mask DNF, with the peak cube count of its
    conversion, of each literal the command changes."""

    __slots__ = ("formulas", "factors", "lowered", "changed", "epoch")

    def __init__(self):
        self.formulas: Dict[object, Formula] = {}
        #: bit -> (mask DNF, peak)
        self.factors: Dict[int, Tuple[Dict[int, Info], int]] = {}
        #: The literals lowered so far, and those among them the
        #: command changes (whose wp is not the literal itself, and
        #: which alone have ``factors``).
        self.lowered = 0
        self.changed = 0
        #: The universe epoch the ``factors``' Info was computed in.
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


def _approx_masks(
    universe: CubeUniverse,
    pre: Dict[int, Info],
    p: object,
    d: object,
    k: Optional[int],
    stats: dict,
) -> Tuple[int, ...]:
    """:func:`approx` on the mask DNF ``pre``: sort, simplify, beam-prune."""
    ordered = universe.sort(pre)
    kept = universe.simplify(ordered, pre)
    stats["subsumption_drops"] += len(ordered) - len(kept)
    if k is not None:
        pruned = drop_k_cubes(kept, k, universe.evaluator(p, d))
        stats["beam_prunes"] += len(kept) - len(pruned)
        kept = pruned
    return tuple(kept)


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
    typically ``not(q)``.  The forward states along the trace are
    replayed first (``B[t ; t'](p, d, f) = B[t](p, d, B[t'](p,
    Fp[t](d), f))`` threads them through), then the weakest
    precondition is folded backwards with ``approx`` applied at every
    step.  ``max_cubes`` bounds the cubes live at any point of a step's
    DNF conversion (``None``: no bound).

    The steps run on the theory's :class:`CubeUniverse`: each replaces
    the literals of the current condition by their memoised mask DNFs
    (:meth:`BackwardMetaAnalysis.wp_factors`), multiplies them out, and
    simplifies and beam-prunes the masks.  The conditions are lifted
    back to :class:`Dnf` values when the pass ends.

    Precondition (checked): ``(p, Fp[t](d_init))`` satisfies ``post`` —
    the trace really is a counterexample.  Guarantee (Theorem 3): the
    returned condition contains ``(p, d_init)``.
    """
    theory = meta.theory
    universe = theory.universe()
    states = analysis.trace_states(trace, p, d_init)
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
    for index in range(len(trace) - 1, -1, -1):
        # One backward command can hide a lot of formula work, so the
        # cooperative budget check here always consults the clock.
        robust_budget.checkpoint()
        command = trace[index]
        union = 0
        for cube in current:
            union |= cube
        factors = meta.wp_factors(command, union, max_cubes)
        # ``None`` is the fast path: the command leaves every tracked
        # literal unchanged (the common case on long traces), so the
        # weakest precondition is the condition itself.
        if factors is not None:
            pre = universe.substitute(current, factors, max_cubes)
            current = _approx_masks(universe, pre, p, states[index], k, stats)
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
