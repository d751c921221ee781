"""TRACER client for the thread-escape analysis.

A query ``(pc, v)`` (Section 6) asks whether the object ``v`` denotes
at the field/array access labelled ``pc`` is thread-local.  The query
holds when ``d(v) != E`` in every state reaching ``pc``, so::

    not(q) = v.E
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.core.formula import Formula, lit
from repro.core.selfcheck import sample_pairs, sample_subsets
from repro.core.tracer import TracerClient, hash_once
from repro.dataflow.engines import ForwardResult, engine_for
from repro.escape.analysis import EscapeAnalysis
from repro.escape.domain import ESC, LOC, NIL, EscSchema
from repro.escape.kernel import EscapeCodec
from repro.escape.meta import EscapeMeta, FieldIs, SiteIs, VarIs
from repro.lang.ast import Program
from repro.lang.cfg import Cfg, build_cfg


@hash_once
@dataclass(frozen=True)
class EscapeQuery:
    """Prove that at ``Observe(label)`` variable ``var`` is not ``E``."""

    label: str
    var: str

    def __str__(self) -> str:
        return f"escape:{self.label}:{self.var}"


class EscapeClient(TracerClient):
    """Binds a program and its site/variable/field universes."""

    def __init__(
        self,
        program: Program,
        schema: EscSchema,
        sites: FrozenSet[str],
    ):
        """``program`` is a structured program (intraprocedural
        collecting engine) or a :class:`repro.dataflow.interproc.ProcGraph`
        (interprocedural tabulation engine)."""
        self.program = program
        self.engine = engine_for(program)
        self.cfg: Optional[Cfg] = getattr(self.engine, "cfg", None)
        self.schema = schema
        self.analysis = EscapeAnalysis(schema, sites)
        self.meta = EscapeMeta(self.analysis)

    def fail_condition(self, query: EscapeQuery) -> Formula:
        return lit(VarIs(query.var, ESC))

    def cache_key(self):
        """Forward-run cache identity; the base token distinguishes
        client instances (and hence programs)."""
        return ("escape", TracerClient.cache_key(self))

    def run_forward(self, p: FrozenSet[str]) -> ForwardResult:
        return self.engine.run(
            self.analysis.semantics.bound_step(p),
            self.analysis.initial_state(),
        )

    def _kernel_codec(self):
        """Bitset layout for ``use_engine("compiled")``: one one-hot
        L/E/N group per schema name."""
        return EscapeCodec(self.schema)

    def selfcheck_space(self):
        """Primitives and ``(p, d)`` samples for ``repro selfcheck``;
        exhaustive when the site/state universes are small."""
        sites = sorted(self.analysis.param_space.keys)
        prims = []
        for site in sites:
            prims.extend(SiteIs(site, value) for value in (LOC, ESC))
        for var in self.schema.locals:
            prims.extend(VarIs(var, value) for value in (LOC, ESC, NIL))
        for fld in self.schema.fields:
            prims.extend(FieldIs(fld, value) for value in (LOC, ESC, NIL))
        return prims, sample_pairs(
            sample_subsets(sites), self.schema.all_states()
        )

    # counterexamples() is inherited from TracerClient.
