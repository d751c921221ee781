"""The compiled bitset kernel must be observationally identical to the
interpreted engine.

The kernel (:mod:`repro.core.kernel`) is a pure performance substitute
for the collecting interpreter: every forward-phase observable the
TRACER loop and the certificate machinery consume — per-node state
sets, first-derivation witnesses, traces, observe-point annotations,
step counts, budget ticks — must match bit-for-bit, or CEGAR takes a
different refinement path and verdicts/certificates silently diverge.

The equivalence tests sweep seeded random programs for all three
bundled clients plus suite benchmarks; the unit tests pin the codec
round-trips and the two fallback paths (non-lowerable command, and an
entry state outside the bitset layout).  The table and family tests
pin how the kernel gets its steps: each abstraction's edge table,
derived from the family's last one, equals one built from scratch; a
type-state family lowers each (table key, footprint) once between its
members, keeps its store no longer than its clients, and lowers
effects into merged shift-and-mask terms; and the number of lowerings
of three serial-eval units is pinned absolutely.
"""

from __future__ import annotations

import gc
import itertools
import random
import weakref
from collections import namedtuple

import pytest

import repro.core.kernel as kernel_mod
from repro.bench.harness import (
    escape_setup,
    evaluate_benchmark,
    prepare,
    typestate_setup,
)
from repro.core.formula import lit, nlit
from repro.core.kernel import EdgeTable, KernelEngine, lower_command
from repro.core.semantics import (
    Case,
    CompiledCommand,
    Const,
    MapRead,
    Read,
    SemanticsBinding,
    Updates,
)
from repro.core.tracer import Tracer, TracerConfig
from repro.dataflow.bitset import (
    BitsetLayout,
    KernelFallback,
    StateCodec,
    bool_group,
    onehot_group,
)
from repro.escape.analysis import ESC_EFFECT
from repro.escape.client import EscapeClient
from repro.escape.domain import ESC, LOC, NIL, VALUES, EscSchema
from repro.lang.universe import collect_universe
from repro.obs import metrics as obs_metrics
from repro.provenance.client import ProvenanceClient
from repro.provenance.domain import PT_TOP, PtSchema, PtState
from repro.robust.budget import Budget, budget_scope
from repro.robust.certify import annotation_digest
from repro.typestate.automaton import file_automaton
from repro.typestate.client import TypestateClient
from tests.randprog import (
    FIELDS,
    SITES,
    VARS,
    random_escape_program,
    random_typestate_program,
)


def abstractions_for(client):
    """Bottom, every singleton, one pair, and the full universe."""
    space = client.analysis.param_space
    universe = sorted(getattr(space, "universe", None) or space.keys)
    out = [frozenset()]
    out += [frozenset({x}) for x in universe]
    if len(universe) >= 2:
        out.append(frozenset(universe[:2]))
    out.append(frozenset(universe))
    return list(dict.fromkeys(out))


def assert_engines_agree(client, p):
    """Interpreted and compiled forward runs must agree on every
    observable: states, witnesses, traces, observe annotations, steps,
    and digests."""
    client.use_engine("interpreted")
    ref = client.run_forward(p)
    mode = client.use_engine("compiled")
    got = client.run_forward(p)
    client.use_engine("interpreted")
    if mode != "compiled":
        pytest.skip("client has no compiled kernel")

    mat = got.materialize()
    assert got.steps == ref.steps
    assert mat.steps == ref.steps
    assert mat.entry_state == ref.entry_state
    assert set(mat.states) == set(ref.states)
    for node, table in ref.states.items():
        got_table = mat.states[node]
        assert set(table) == set(got_table), node
        for state, witness in table.items():
            got_witness = got_table[state]
            if witness is None:
                assert got_witness is None, (node, state)
            else:
                # Same predecessor node+state, and the *same edge
                # object* — traces rebuilt from either engine replay
                # identical command sequences.
                assert got_witness is not None, (node, state)
                assert witness[0] == got_witness[0], (node, state)
                assert witness[1] == got_witness[1], (node, state)
                assert witness[2] is got_witness[2], (node, state)
        for state in table:
            assert ref.trace_to(node, state) == got.trace_to(node, state)
    for label in client.cfg.observe_edges():
        assert ref.states_before_observe(label) == got.states_before_observe(
            label
        ), label
        assert annotation_digest(ref, label) == annotation_digest(got, label)


def typestate_client(seed):
    rng = random.Random(seed)
    program = random_typestate_program(rng, length=7)
    return TypestateClient(program, file_automaton(), "h1", frozenset(VARS))


def escape_client(seed):
    rng = random.Random(seed + 1000)
    program = random_escape_program(rng, length=7)
    return EscapeClient(program, EscSchema(VARS, FIELDS), frozenset(SITES))


def provenance_client(seed):
    rng = random.Random(seed + 2000)
    program = random_escape_program(rng, length=7)
    return ProvenanceClient(program, PtSchema(VARS), frozenset(SITES))


class TestEngineEquivalenceRandom:
    """Property sweep: seeded random programs, all three clients, all
    abstractions of the (small) parameter universe."""

    @pytest.mark.parametrize("seed", range(10))
    def test_typestate(self, seed):
        client = typestate_client(seed)
        for p in abstractions_for(client):
            assert_engines_agree(client, p)

    @pytest.mark.parametrize("seed", range(10))
    def test_escape(self, seed):
        client = escape_client(seed)
        for p in abstractions_for(client):
            assert_engines_agree(client, p)

    @pytest.mark.parametrize("seed", range(10))
    def test_provenance(self, seed):
        client = provenance_client(seed)
        for p in abstractions_for(client):
            assert_engines_agree(client, p)


class TestEngineEquivalenceSuite:
    """Suite benchmarks: one escape, one typestate, one provenance
    client per program, bottom/singleton/full abstractions."""

    @pytest.mark.parametrize("name", ["tsp", "elevator"])
    def test_suite_clients(self, name):
        bench = prepare(name)
        clients = [escape_setup(bench)[0]]
        clients += [c for c, _queries in typestate_setup(bench)[:1]]
        universe = collect_universe(bench.inlined.program)
        clients.append(
            ProvenanceClient(
                bench.inlined.program,
                PtSchema(universe.variables),
                universe.sites,
            )
        )
        for client in clients:
            space = client.analysis.param_space
            keys = sorted(getattr(space, "universe", None) or space.keys)
            for p in (
                frozenset(),
                frozenset(keys[:1]),
                frozenset(keys),
            ):
                assert_engines_agree(client, p)

    def test_observe_order_is_engine_independent(self):
        """Regression: ``states_at`` orders states by ``repr``, and a
        dataclass-default repr interpolating raw frozensets depends on
        set insertion history — interpreter-built and codec-decoded
        equal states then sort differently under some hash seeds.
        Every bundled state type now reprs canonically (sorted), so
        the observe-point annotation order must match exactly."""
        bench = prepare("elevator")
        for client, _queries in typestate_setup(bench):
            space = client.analysis.param_space
            full = frozenset(space.universe)
            client.use_engine("interpreted")
            ref = client.run_forward(full)
            client.use_engine("compiled")
            got = client.run_forward(full)
            client.use_engine("interpreted")
            for label in client.cfg.observe_edges():
                assert ref.states_before_observe(
                    label
                ) == got.states_before_observe(label), label


class TestBudgetParity:
    """The compiled loop must charge the same step budget as the
    interpreted loop — budget exhaustion mid-search is an observable
    the CEGAR journal records."""

    def test_tick_counts_match(self):
        client = typestate_client(3)
        for p in abstractions_for(client):
            client.use_engine("interpreted")
            ref_budget = Budget(max_steps=10**9)
            with budget_scope(ref_budget):
                client.run_forward(p)
            client.use_engine("compiled")
            got_budget = Budget(max_steps=10**9)
            with budget_scope(got_budget):
                client.run_forward(p)
            client.use_engine("interpreted")
            assert ref_budget.steps == got_budget.steps, p


class TestCodecRoundTrip:
    """encode/decode must be exact inverses on every reachable state."""

    @pytest.mark.parametrize(
        "make_client",
        [typestate_client, escape_client, provenance_client],
        ids=["typestate", "escape", "provenance"],
    )
    def test_reachable_states_round_trip(self, make_client):
        client = make_client(0)
        codec = client._kernel_codec()
        assert codec is not None
        for p in abstractions_for(client):
            result = client.run_forward(p)
            seen = 0
            for node in result.states:
                for state in result.states[node]:
                    bits = codec.encode(state)
                    assert codec.decode(bits) == state, (p, state)
                    seen += 1
            assert seen > 0

    def test_escape_decode_rejects_non_canonical_words(self):
        """The escape codec decodes a word's octal digits; a digit that
        is no single value bit, or a bit beyond the layout, is refused."""
        codec = escape_client(0)._kernel_codec()
        full = codec.layout.full_mask
        for bits in (0, full, full + 1):
            with pytest.raises(ValueError):
                codec.decode_state(bits)


class TestFallback:
    """When a command cannot be lowered the engine must degrade to an
    interpreted per-command closure, not fail or diverge."""

    def test_lowering_failure_falls_back_and_stays_identical(
        self, monkeypatch
    ):
        def always_fallback(compiled, codec, p):
            raise KernelFallback("forced by test")

        client = typestate_client(1)
        client.use_engine("interpreted")
        refs = [
            client.run_forward(p).states for p in abstractions_for(client)
        ]
        monkeypatch.setattr(kernel_mod, "lower_command", always_fallback)
        assert client.use_engine("compiled") == "compiled"
        engine = client._kernel_engine
        for p, ref_states in zip(abstractions_for(client), refs):
            assert client.run_forward(p).materialize().states == ref_states
        assert engine.fallbacks > 0
        client.use_engine("interpreted")

    def test_standard_clients_lower_without_fallback(self):
        """The bundled clients' semantics are fully lowerable — a
        fallback here would silently forfeit the kernel speedup."""
        for make_client in (typestate_client, escape_client, provenance_client):
            client = make_client(2)
            assert client.use_engine("compiled") == "compiled"
            for p in abstractions_for(client):
                client.run_forward(p)
            assert client._kernel_engine.fallbacks == 0
            client.use_engine("interpreted")

    def test_unencodable_entry_state_runs_interpreted(self):
        """An entry state outside the bitset layout (here: a points-to
        set naming an untracked site) must route the whole run to the
        inner engine instead of raising."""
        client = provenance_client(4)
        assert client.use_engine("compiled") == "compiled"
        engine = client.engine
        assert isinstance(engine, KernelEngine)
        schema = client.schema
        weird = PtState(
            schema,
            tuple(
                frozenset({"not_a_site"}) if i == 0 else PT_TOP
                for i in range(len(schema.variables))
            ),
        )
        p = frozenset(SITES)
        step = client.analysis.semantics.bound_step(p)
        result = engine.run(step, weird)
        expected = engine.inner.run(step, weird)
        assert result.states == expected.states
        assert result.steps == expected.steps
        client.use_engine("interpreted")


class TestEngineConfig:
    """``TracerConfig.engine`` must thread through the solver: the
    verdict, iteration count, and annotation digest of a query are
    engine-independent."""

    def test_solver_records_match_across_engines(self):
        bench = prepare("tsp")
        client, queries = typestate_setup(bench)[0]
        records = {}
        for engine in ("interpreted", "compiled"):
            config = TracerConfig(k=5, max_iterations=30, engine=engine)
            solved = Tracer(client, config).solve_all(queries)
            records[engine] = [
                (
                    record.query_id,
                    record.status.value,
                    record.abstraction,
                    record.iterations,
                )
                for record in (solved[q] for q in queries)
            ]
        client.use_engine("interpreted")
        assert records["interpreted"] == records["compiled"]


# ---------------------------------------------------------------------------
# Edge tables, family sharing, lowering
# ---------------------------------------------------------------------------


def compiled_engine(client):
    assert client.use_engine("compiled") == "compiled"
    return client._kernel_engine


def rebuilt_table(engine, p):
    """The edge table for ``p`` built from scratch, node by node."""
    cfg = engine.cfg
    table = EdgeTable(
        cfg,
        tuple(
            sum(1 for edge in cfg.successors(node) if edge.command is not None)
            for node in range(cfg.node_count)
        ),
    )
    for node in range(cfg.node_count):
        table.set_node(
            node,
            tuple(
                (
                    None
                    if edge.command is None
                    else engine.bound_step(edge.command, p),
                    edge.dst,
                    edge,
                )
                for edge in cfg.successors(node)
            ),
        )
    return table


def assert_tables_equal(derived, rebuilt, cfg):
    assert len(derived.fns) == len(rebuilt.fns) == cfg.node_count
    for node in range(cfg.node_count):
        assert derived.fns[node] is rebuilt.fns[node], node
        # Rows hold the store's step objects, so == compares fns by
        # identity here too.
        assert type(derived.rest[node]) is type(rebuilt.rest[node]), node
        assert derived.rest[node] == rebuilt.rest[node], node
        rows = derived.full[node]
        assert [edge for _fn, _dst, edge in rows] == cfg.successors(node), node
        for (fn, dst, edge), (ref_fn, ref_dst, ref_edge) in zip(
            rows, rebuilt.full[node]
        ):
            assert fn is ref_fn and dst == ref_dst and edge is ref_edge, node
    assert derived.dsts == rebuilt.dsts
    assert derived.deltas == rebuilt.deltas
    assert derived.counts == rebuilt.counts
    assert derived.observe == rebuilt.observe


def abstraction_walk(universe, rng, steps=24):
    """Abstractions from bottom: add or remove one parameter per step,
    with an occasional jump to a random subset."""
    universe = sorted(universe)
    p = frozenset()
    yield p
    for _ in range(steps):
        if rng.random() < 0.2:
            p = frozenset(x for x in universe if rng.random() < 0.5)
        else:
            p = p ^ {rng.choice(universe)}
        yield p


def universe_of(client):
    space = client.analysis.param_space
    return getattr(space, "universe", None) or space.keys


def random_family(seed):
    rng = random.Random(seed)
    program = random_typestate_program(rng, length=7)
    return TypestateClient.family(
        program,
        file_automaton(),
        frozenset(VARS),
        [(site, None) for site in SITES],
    )


def avrora_clients():
    bench = prepare("avrora")
    return [escape_setup(bench)[0]] + [
        client for client, _queries in typestate_setup(bench)[:3]
    ]


class TestDerivedTables:
    """Each abstraction's edge table is derived from the family's last
    one, re-resolving only the parameter-dependent nodes whose
    footprint changed, with the client's own nodes put in; it must
    equal a table built from scratch, node for node, whatever
    abstraction (or sibling) the family derived before."""

    @staticmethod
    def assert_walk(clients, rng, steps=24):
        """Walk the clients' (common) universe, checking every client
        at each abstraction, in a random order; then check that no
        table handed out earlier was changed by a later derivation."""
        engines = [compiled_engine(client) for client in clients]
        handed_out = []
        for p in abstraction_walk(universe_of(clients[0]), rng, steps):
            for engine in rng.sample(engines, len(engines)):
                table = engine.edge_table(p)
                assert_tables_equal(table, rebuilt_table(engine, p), engine.cfg)
                handed_out.append((engine, p, table))
        for engine, p, table in handed_out:
            assert_tables_equal(table, rebuilt_table(engine, p), engine.cfg)
        for client in clients:
            client.use_engine("interpreted")

    @pytest.mark.parametrize("seed", range(4))
    def test_random_clients(self, seed):
        rng = random.Random(seed)
        self.assert_walk(random_family(seed), rng)
        self.assert_walk([escape_client(seed)], rng)
        self.assert_walk([provenance_client(seed)], rng)

    def test_unknown_footprints(self, monkeypatch):
        """A table of unknown footprint (an effect without
        ``param_primitives``) is re-resolved for every new abstraction."""
        monkeypatch.setattr(
            CompiledCommand, "_collect_param_prims", lambda self: None
        )
        self.assert_walk([escape_client(0)], random.Random(0), steps=12)

    def test_avrora(self):
        escape, *family = avrora_clients()
        rng = random.Random(0)
        self.assert_walk([escape], rng, steps=12)
        self.assert_walk(family, rng, steps=12)


class TestFamilySharing:
    """A type-state family shares one kernel store: one codec, and each
    (table key, specialisation key) lowered once between the siblings."""

    def test_weblech_family_lowers_each_key_once(self):
        bench = prepare("weblech")
        with obs_metrics.scoped_registry() as registry:
            clients = [client for client, _queries in typestate_setup(bench)]
            assert len(clients) > 1
            resolved = set()
            for client in clients:
                semantics = client.analysis.semantics
                universe = sorted(universe_of(client))
                for p in (frozenset(), frozenset(universe[:1]), frozenset(universe)):
                    assert_engines_agree(client, p)
                    for edge in client.cfg.edges:
                        if edge.command is None:
                            continue
                        compiled = semantics.compiled(edge.command)
                        if not compiled._all_identity:
                            resolved.add(
                                (
                                    semantics.table_key(edge.command),
                                    compiled.specialisation_key(p),
                                )
                            )
            counters = registry.snapshot()["kernel.typestate"]
            assert registry.source_count("kernel.typestate") == len(clients)
        store = clients[0]._kernel_store
        assert all(client._kernel_store is store for client in clients)
        assert all(client._kernel_engine.codec is store.codec for client in clients)
        assert counters.misses == len(resolved) == len(store.steps)
        # The siblings' own tracked ``New`` and event edges were
        # resolved under their own keys, not the template builder's.
        first = clients[0].analysis.semantics
        differing = [
            edge
            for client in clients[1:]
            for edge in client.cfg.edges
            if edge.command is not None
            and client.analysis.semantics.table_key(edge.command)
            != first.table_key(edge.command)
        ]
        assert differing

    def test_store_dies_with_the_family(self):
        """No registry keeps a family's store alive: after the clients
        go, so do its codec and lowered steps."""
        clients = random_family(0)
        for client in clients:
            compiled_engine(client)
            client.run_forward(frozenset(VARS[:1]))
        store = weakref.ref(clients[0]._kernel_store)
        assert store() is not None
        del client, clients
        gc.collect()
        assert store() is None


#: The crafted layout of :class:`TestLoweredEffects`: one-hot groups
#: around two bool groups, so copies run at several bit distances.
MIXED_SPECS = (
    onehot_group(("o", "a"), VALUES),
    onehot_group(("o", "b"), VALUES),
    onehot_group(("o", "c"), VALUES),
    bool_group(("b", "x")),
    bool_group(("b", "y")),
    onehot_group(("o", "d"), VALUES),
)

#: A primitive asserting ``location == value``.
Is = namedtuple("Is", "location value")


class MixedBinding(SemanticsBinding):
    """Tuple states over :data:`MIXED_SPECS`, one slot per location."""

    theory = None

    def __init__(self):
        self._index = {spec[0]: i for i, spec in enumerate(MIXED_SPECS)}

    def location_of(self, prim):
        return prim.location

    def prim_value(self, prim):
        return prim.value

    def compile_read(self, location):
        index = self._index[location]
        return lambda p, d: d[index]

    def compile_write(self, location):
        index = self._index[location]
        return lambda d, value: d[:index] + (value,) + d[index + 1:]

    def compile_primitive_test(self, prim):
        index, value = self._index[prim.location], prim.value
        return lambda p, d: d[index] == value


class MixedCodec(StateCodec):
    def __init__(self):
        super().__init__(BitsetLayout(MIXED_SPECS))

    def encode_state(self, state):
        bits = 0
        for group, value in zip(self.layout.groups, state):
            bits |= group.value_bits(value)
        return bits

    def decode_state(self, bits):
        return tuple(group.decode(bits) for group in self.layout.groups)

    def safe_effect(self, effect, binding, p):
        return all(location in self.layout for location, _ in effect.writes)


class TestLoweredEffects:
    """``Read`` copies and one-hot map reads merge into one
    ``(s & mask) << delta`` term per bit distance; a bool-group
    ``MapRead`` keeps its lookup table."""

    X = ("b", "x")
    MIXED_TABLE = (
        Case(
            lit(Is(X, True)),
            Updates.of(
                {
                    # same-group one-hot MapRead (the escape step of a local)
                    ("o", "a"): MapRead(
                        ("o", "a"), ((LOC, ESC), (ESC, ESC), (NIL, NIL))
                    ),
                    # cross-group copies, one down and one up the word
                    ("o", "b"): Read(("o", "d")),
                    ("o", "d"): Read(("o", "a")),
                    # cross-group one-hot MapRead
                    ("o", "c"): MapRead(
                        ("o", "b"), ((LOC, NIL), (ESC, LOC), (NIL, ESC))
                    ),
                    # bool-group MapRead: a negation, kept as a table
                    ("b", "y"): MapRead(X, ((False, True), (True, False))),
                }
            ),
        ),
        Case(
            nlit(Is(X, True)),
            Updates.of(
                {
                    ("o", "c"): Const(ESC),
                    # one-hot to bool MapRead, and a bool copy
                    X: MapRead(("o", "a"), ((LOC, True), (ESC, False), (NIL, True))),
                    ("b", "y"): Read(X),
                }
            ),
        ),
    )

    def test_merged_terms(self):
        binding, codec = MixedBinding(), MixedCodec()
        p = frozenset()
        terms, tables, conds, _const = kernel_mod._lower_effect(
            self.MIXED_TABLE[0].effect, binding, codec, p
        )
        assert len({delta for delta, _mask in terms}) == len(terms)
        assert len(terms) < 7  # kept bits plus four copies, merged
        assert len(tables) == 1 and not conds
        terms, tables, conds, const = kernel_mod._lower_effect(
            self.MIXED_TABLE[1].effect, binding, codec, p
        )
        assert not tables and not conds and const

    def test_lowered_step_matches_bind_on_every_canonical_word(self):
        binding, codec = MixedBinding(), MixedCodec()
        compiled = CompiledCommand(self.MIXED_TABLE, binding)
        p = frozenset()
        step = lower_command(compiled, codec, p)
        reference = compiled.bind(p)
        domains = [group.domain() for group in codec.layout.groups]
        words = 0
        for state in itertools.product(*domains):
            bits = codec.encode(state)
            assert step(bits) == codec.encode(reference(state)), state
            words += 1
        assert words == 3 ** 4 * 2 ** 2

    def test_escape_is_three_terms(self):
        client = escape_client(0)
        codec = client._kernel_codec()
        binding = client.analysis.semantics.binding
        terms, tables, conds, const = kernel_mod._lower_effect(
            ESC_EFFECT, binding, codec, frozenset()
        )
        assert len(terms) + bool(const) <= 3 and not tables and not conds
        # Parameter-free effects are lowered once per codec.
        assert codec.lowered[ESC_EFFECT] == (terms, tables, conds, const)


#: ``kernel.<client>`` misses (steps lowered) per serial-eval unit,
#: summed over a type-state family; the same at hash seeds 0 and 1.
#: Lowering once per client or once per abstraction again raises them.
LOWERINGS = {
    ("tsp", "escape"): 114,
    ("hedc", "escape"): 170,
    ("weblech", "typestate"): 234,
}


@pytest.mark.parametrize("unit", sorted(LOWERINGS), ids="-".join)
def test_lowering_counts_pinned(unit):
    name, analysis = unit
    result = evaluate_benchmark(
        prepare(name), analysis, TracerConfig(k=5, max_iterations=30)
    )
    assert result.metrics[f"kernel.{analysis}"].misses == LOWERINGS[unit]
