"""TRACER client for the type-state analysis.

A query ``(pc, h)`` of Section 6 asks whether, at the program point
labelled ``pc``, every object allocated at site ``h`` that the receiver
may denote is in an *allowed* type-state.  The failure condition is::

    not(q) = err | \\/ {type(s) | s not allowed}

One :class:`TypestateClient` binds a program and a single tracked
allocation site; queries on different sites use different client
instances (their forward analyses track different objects).
:meth:`TypestateClient.family` builds the clients of several sites of
one program at once, sharing everything that does not depend on the
site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.core.formula import Formula, disj, lit
from repro.core.selfcheck import sample_pairs, sample_subsets
from repro.core.tracer import TracerClient, hash_once
from repro.dataflow.engines import ForwardResult, engine_for
from repro.dataflow.interproc import ProcGraph
from repro.lang.ast import Program
from repro.lang.cfg import Cfg, build_cfg
from repro.typestate.analysis import MayPoint, TypestateAnalysis
from repro.typestate.automaton import TypestateAutomaton
from repro.typestate.domain import TOP, TsState
from repro.typestate.kernel import TypestateCodec
from repro.typestate.meta import ERR, TsParam, TsType, TsVar, TypestateMeta


@hash_once
@dataclass(frozen=True)
class TypestateQuery:
    """Prove that at ``Observe(label)`` the tracked object's type-state
    is within ``allowed`` (and no error occurred)."""

    label: str
    allowed: FrozenSet[str]

    def __str__(self) -> str:
        return f"typestate:{self.label}"


class TypestateClient(TracerClient):
    """Binds program + automaton + tracked site into a TRACER client."""

    def __init__(
        self,
        program: Union[Program, ProcGraph],
        automaton: TypestateAutomaton,
        tracked_site: str,
        variables: FrozenSet[str],
        may_point: Optional[MayPoint] = None,
        event_labels: Optional[FrozenSet[str]] = None,
    ):
        analysis = TypestateAnalysis(
            automaton, tracked_site, variables, may_point, event_labels
        )
        self._assemble(program, engine_for(program), analysis)

    @classmethod
    def family(
        cls,
        program: Union[Program, ProcGraph],
        automaton: TypestateAutomaton,
        variables: FrozenSet[str],
        sites: Sequence[Tuple[str, Optional[MayPoint]]],
        event_labels: Optional[FrozenSet[str]] = None,
    ) -> List["TypestateClient"]:
        """One client per ``(tracked_site, may_point)`` pair of
        ``sites``, in order, built as one family.

        The clients share what does not depend on the tracked site: one
        CFG (or procedure graph), one binding — and through it one
        theory and cube universe —, one compiled-command store, one
        backward wp memo and one compiled-kernel store (codec, lowered
        steps and edge-table template), all keyed by
        :meth:`~repro.typestate.analysis.TypestateSemantics.table_key`.
        The shared stores live as long as the clients do.  Each client
        keeps its own engine, forward-run cache key and cache counters,
        and finds what a standalone client finds."""
        if not sites:
            return []
        graph = program if isinstance(program, ProcGraph) else build_cfg(program)
        clients: List[TypestateClient] = []
        for site, may_point in sites:
            sibling = clients[0] if clients else None
            analysis = TypestateAnalysis(
                automaton,
                site,
                variables,
                may_point,
                event_labels,
                None if sibling is None else sibling.analysis,
            )
            client = cls.__new__(cls)
            client._assemble(program, engine_for(graph), analysis)
            if sibling is not None:
                client.meta.share_wp_memo(sibling.meta)
                client.share_kernel_store(sibling)
            clients.append(client)
        return clients

    def _assemble(
        self,
        program: Union[Program, ProcGraph],
        engine,
        analysis: TypestateAnalysis,
    ) -> None:
        self.program = program
        self.engine = engine
        self.cfg: Optional[Cfg] = getattr(engine, "cfg", None)
        self.analysis = analysis
        self.meta = TypestateMeta(analysis)

    def fail_condition(self, query: TypestateQuery) -> Formula:
        bad_states = sorted(self.analysis.automaton.states - query.allowed)
        return disj(lit(ERR), *(lit(TsType(s)) for s in bad_states))

    def cache_key(self):
        """Forward-run cache identity: the tracked site and automaton
        distinguish sibling clients of one benchmark; the base token
        distinguishes client instances (and hence programs)."""
        return (
            "typestate",
            self.analysis.tracked_site,
            self.analysis.automaton.name,
            TracerClient.cache_key(self),
        )

    def run_forward(self, p: FrozenSet[str]) -> ForwardResult:
        """One forward run of the ``p``-instantiated analysis."""
        return self.engine.run(
            self.analysis.semantics.bound_step(p),
            self.analysis.initial_state(),
        )

    def _kernel_codec(self):
        """Bitset layout for the compiled engine: the error flag,
        automaton-state bits, and one must-alias bit per
        parameter-universe variable (one codec serves a family)."""
        return TypestateCodec(
            self.analysis.automaton, self.analysis.param_space.universe
        )

    def selfcheck_space(self):
        """Primitives and ``(p, d)`` samples for ``repro selfcheck``;
        exhaustive when the variable/state universes are small."""
        automaton_states = sorted(self.analysis.automaton.states)
        variables = sorted(self.analysis.param_space.universe)
        prims = [ERR]
        for var in variables:
            prims.append(TsParam(var))
            prims.append(TsVar(var))
        prims.extend(TsType(s) for s in automaton_states)
        states = [TOP]
        for ts in sample_subsets(automaton_states, limit=4):
            for vs in sample_subsets(variables, limit=4):
                states.append(TsState(ts, vs))
        return prims, sample_pairs(sample_subsets(variables), states)

    # counterexamples() is inherited from TracerClient: one forward run
    # (through the forward-run cache when the driver passes one), then a
    # per-query scan of the states reaching each Observe label.
