"""The disjunctive collecting engine with counterexample witnesses.

This plays the role of the RHS tabulation engine in the paper's
implementation: it computes, for a ``p``-instantiated analysis, the set
of abstract states reaching every CFG node — ``Fp[s]({dI})`` of
Figure 3 — and records for every *first derivation* of a state a
witness link ``(predecessor node, predecessor state, edge)``.

Because the analysis is disjunctive (transfer functions are applied to
states one at a time; node results are plain unions), Lemma 1 applies:
every reachable ``(node, state)`` pair is produced by some loop-free
derivation, and following witness links backwards yields a concrete
*abstract counterexample trace* — a straight-line sequence of atomic
commands ``t`` with ``Fp[t](dI) = state`` — exactly what the backward
meta-analysis consumes.  The links also hold the state before each
command, so the trace comes with its forward states
(:class:`WitnessTrace`) and the meta-analysis need not replay them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.lang.ast import AtomicCommand
from repro.lang.cfg import Cfg, CfgEdge
from repro.robust import budget as robust_budget

Step = Callable[[AtomicCommand, object], object]
_Witness = Optional[Tuple[int, object, CfgEdge]]


class WitnessTrace(tuple):
    """A witness trace: the tuple of atomic commands ``trace_to``
    returns, carrying the forward states along it as ``states`` —
    ``states[i]`` holds before command ``i`` and ``states[-1]`` is the
    state the witness derives, so ``states`` equals
    ``analysis.trace_states(trace, p, entry_state)`` for the run's
    ``p``.  It compares, hashes and serialises like the plain tuple of
    its commands."""

    def __new__(cls, commands, states: Tuple[object, ...]):
        trace = super().__new__(cls, commands)
        trace.states = states
        return trace

    def __reduce__(self):
        return WitnessTrace, (tuple(self), self.states)


def resolve_step(step: Step) -> Callable[[AtomicCommand], Callable]:
    """A ``command -> (d -> d')`` resolver for ``step``.

    When ``step`` offers a ``for_command`` hook (the
    :class:`repro.core.semantics.BoundStep` protocol) the hook is used
    directly — the fixpoint loops apply the same few commands to many
    states, and pre-resolving each command once replaces the
    per-application dispatch (table lookup, guard selection) with a
    direct closure call.  Plain callables are wrapped per command."""
    resolver = getattr(step, "for_command", None)
    if resolver is not None:
        return resolver
    resolved: Dict[AtomicCommand, Callable[[object], object]] = {}

    def resolve(command: AtomicCommand) -> Callable[[object], object]:
        fn = resolved.get(command)
        if fn is None:

            def fn(d, _command=command):
                return step(_command, d)

            resolved[command] = fn
        return fn

    return resolve


@dataclass
class CollectingResult:
    """Fixpoint of the collecting semantics plus witness links."""

    cfg: Cfg
    entry_state: object
    states: Dict[int, Dict[object, _Witness]]
    steps: int  # number of transfer-function applications (a cost proxy)

    def states_at(self, node: int) -> Tuple[object, ...]:
        """All abstract states reaching ``node``, deterministically ordered."""
        table = self.states.get(node, {})
        return tuple(sorted(table.keys(), key=repr))

    def exit_states(self) -> Tuple[object, ...]:
        return self.states_at(self.cfg.exit)

    def states_before_observe(self, label: str) -> Tuple[Tuple[int, object], ...]:
        """All ``(node, state)`` pairs flowing into the ``Observe``
        edges carrying ``label`` — the states at the query point."""
        out: List[Tuple[int, object]] = []
        for edge_label, edges in self.cfg.observe_edges().items():
            if edge_label != label:
                continue
            for edge in edges:
                for state in self.states_at(edge.src):
                    out.append((edge.src, state))
        return tuple(out)

    def trace_to(self, node: int, state: object) -> WitnessTrace:
        """The witness trace deriving ``state`` at ``node`` from the
        entry state: a sequence of atomic commands (epsilon edges are
        dropped), with the state before each command taken from the
        witness links.  Raises ``KeyError`` if the pair was never
        derived."""
        commands: List[AtomicCommand] = []
        states = [state]
        current: Tuple[int, object] = (node, state)
        while True:
            witness = self.states[current[0]][current[1]]
            if witness is None:
                break
            pred_node, pred_state, edge = witness
            if edge.command is not None:
                commands.append(edge.command)
                states.append(pred_state)
            current = (pred_node, pred_state)
        commands.reverse()
        states.reverse()
        return WitnessTrace(commands, tuple(states))


def run_collecting(
    cfg: Cfg,
    step: Step,
    entry_state: object,
    edge_cache: Optional[Dict[int, Tuple]] = None,
) -> CollectingResult:
    """Compute the collecting fixpoint from ``entry_state``.

    ``step`` is the (already ``p``-instantiated) transfer function; it
    must be total and deterministic on abstract states, and the state
    space reachable from ``entry_state`` must be finite.  Callers that
    repeat runs with the *same* ``step`` may pass a persistent
    ``edge_cache`` dict to reuse the per-node resolved successor lists
    across runs.
    """
    resolve = resolve_step(step)
    # Per-node successor lists with the step closure resolved per edge,
    # built once: the hot loop revisits the same nodes with many states.
    compiled: Dict[int, Tuple[Tuple[CfgEdge, Optional[Callable]], ...]] = (
        {} if edge_cache is None else edge_cache
    )
    states: Dict[int, Dict[object, _Witness]] = {cfg.entry: {entry_state: None}}
    pending = deque([(cfg.entry, entry_state)])
    steps = 0
    tick = robust_budget.tick  # cooperative deadline/step budget
    while pending:
        tick()
        node, state = pending.popleft()
        edges = compiled.get(node)
        if edges is None:
            edges = compiled[node] = tuple(
                (
                    edge,
                    None if edge.command is None else resolve(edge.command),
                )
                for edge in cfg.successors(node)
            )
        for edge, fn in edges:
            if fn is None:
                out = state
            else:
                out = fn(state)
                steps += 1
            table = states.setdefault(edge.dst, {})
            if out not in table:
                table[out] = (node, state, edge)
                pending.append((edge.dst, out))
    return CollectingResult(cfg=cfg, entry_state=entry_state, states=states, steps=steps)
