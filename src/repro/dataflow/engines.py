"""Forward-engine adapters shared by the client analyses.

A TRACER client needs, per abstraction, a forward run exposing the
states reaching every ``Observe`` label plus witness traces.  Two
engines provide that interface:

* :class:`CollectingEngine` — the intraprocedural disjunctive engine
  over one CFG (used with fully inlined programs);
* :class:`TabulationEngine` — the interprocedural summary-based engine
  over a :class:`repro.dataflow.interproc.ProcGraph` (full context
  sensitivity via entry states; supports recursion).

Both results expose ``states_before_observe(label)`` and
``trace_to(handle, state)``; clients treat handles opaquely.
"""

from __future__ import annotations

from typing import Union

from repro.dataflow.collecting import CollectingResult, run_collecting
from repro.dataflow.interproc import ProcGraph, TabulationResult, run_tabulation
from repro.lang.ast import Program
from repro.lang.cfg import Cfg, build_cfg

ForwardResult = Union[CollectingResult, TabulationResult]


#: Distinct step objects an engine keeps edge caches for.  Clients
#: that reuse per-abstraction bound steps stay far below this; the
#: bound protects against callers passing a fresh closure every run.
_MAX_STEP_CACHES = 256


class CollectingEngine:
    """Intraprocedural engine over a single CFG.

    Resolved per-node successor lists are cached per ``step`` object,
    so repeated runs with the same bound step (the TRACER loop
    re-running under many abstractions) skip edge resolution entirely.
    """

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        self._edge_caches = {}

    def run(self, step, entry_state) -> CollectingResult:
        if len(self._edge_caches) > _MAX_STEP_CACHES:
            self._edge_caches.clear()
        cache = self._edge_caches.setdefault(step, {})
        return run_collecting(self.cfg, step, entry_state, cache)


class TabulationEngine:
    """Interprocedural summary-based engine over a procedure graph.

    Caches resolved successor lists per ``step`` like
    :class:`CollectingEngine`."""

    def __init__(self, graph: ProcGraph):
        self.graph = graph
        self._edge_caches = {}

    def run(self, step, entry_state) -> TabulationResult:
        if len(self._edge_caches) > _MAX_STEP_CACHES:
            self._edge_caches.clear()
        cache = self._edge_caches.setdefault(step, {})
        return run_tabulation(self.graph, step, entry_state, cache)


def engine_for(program: Union[Program, ProcGraph, Cfg]):
    """Pick the engine matching the program representation; a built
    :class:`Cfg` is used as is."""
    if isinstance(program, ProcGraph):
        return TabulationEngine(program)
    if isinstance(program, Cfg):
        return CollectingEngine(program)
    return CollectingEngine(build_cfg(program))
