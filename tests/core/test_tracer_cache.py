"""Tests for the forward-run cache and the per-query time accounting."""

import warnings

import pytest

import repro.core.tracer as tracer_mod
from repro.core.stats import QueryStatus
from repro.core.tracer import (
    ForwardRunCache,
    Tracer,
    TracerConfig,
    run_query_group,
)
from repro.escape import EscSchema, EscapeClient, EscapeQuery
from repro.lang import parse_program

TWO_QUERY_PROGRAM = """
observe qa
u = new h1
choice {
  $g = u
} or {
  skip
}
w = u
observe qb
"""


def two_query_client(cls=EscapeClient):
    program = parse_program(TWO_QUERY_PROGRAM)
    client = cls(program, EscSchema(["u", "w"], []), frozenset({"h1"}))
    return client, EscapeQuery("qa", "u"), EscapeQuery("qb", "w")


class CountingClient(EscapeClient):
    """Escape client that counts actual forward fixpoint runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.forward_calls = 0

    def run_forward(self, p):
        self.forward_calls += 1
        return super().run_forward(p)


class TestForwardRunCache:
    def test_second_fetch_is_a_hit(self):
        program = parse_program(TWO_QUERY_PROGRAM)
        client = CountingClient(
            program, EscSchema(["u", "w"], []), frozenset({"h1"})
        )
        cache = ForwardRunCache(max_entries=4)
        p = frozenset({"h1"})
        first = cache.fetch(client, p)
        second = cache.fetch(client, p)
        assert first is second
        assert client.forward_calls == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_distinct_abstractions_miss(self):
        program = parse_program(TWO_QUERY_PROGRAM)
        client = CountingClient(
            program, EscSchema(["u", "w"], []), frozenset({"h1"})
        )
        cache = ForwardRunCache(max_entries=4)
        cache.fetch(client, frozenset())
        cache.fetch(client, frozenset({"h1"}))
        assert client.forward_calls == 2
        assert cache.hits == 0

    def test_distinct_clients_do_not_collide(self):
        program = parse_program(TWO_QUERY_PROGRAM)
        schema = EscSchema(["u", "w"], [])
        a = CountingClient(program, schema, frozenset({"h1"}))
        b = CountingClient(program, schema, frozenset({"h1"}))
        cache = ForwardRunCache(max_entries=4)
        p = frozenset({"h1"})
        cache.fetch(a, p)
        cache.fetch(b, p)
        assert a.forward_calls == 1
        assert b.forward_calls == 1
        assert cache.hits == 0

    def test_lru_bound_evicts_coldest(self):
        program = parse_program(TWO_QUERY_PROGRAM)
        client = CountingClient(
            program, EscSchema(["u", "w"], []), frozenset({"h1"})
        )
        cache = ForwardRunCache(max_entries=1)
        cache.fetch(client, frozenset())
        cache.fetch(client, frozenset({"h1"}))  # evicts the empty-p entry
        cache.fetch(client, frozenset())  # miss again
        assert client.forward_calls == 3
        assert len(cache) == 1

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            ForwardRunCache(max_entries=0)


class TestDriverUsesCache:
    def test_driver_results_identical_cache_on_and_off(self):
        key = lambda r: (
            r.query_id,
            r.status,
            r.abstraction,
            r.abstraction_cost,
            r.iterations,
            r.forward_runs,
        )
        client_on, qa, qb = two_query_client()
        client_off, _, _ = two_query_client()
        on = Tracer(client_on, TracerConfig(forward_cache_size=64)).solve_all(
            [qa, qb]
        )
        off = Tracer(client_off, TracerConfig(forward_cache_size=None)).solve_all(
            [qa, qb]
        )
        assert [key(on[q]) for q in (qa, qb)] == [key(off[q]) for q in (qa, qb)]

    def test_cache_off_reports_no_hits(self):
        client, qa, qb = two_query_client()
        records = Tracer(client, TracerConfig(forward_cache_size=None)).solve_all(
            [qa, qb]
        )
        assert all(r.forward_cache_hits == 0 for r in records.values())

    def test_legacy_client_without_cache_parameter_still_works(self):
        client, qa, qb = two_query_client()

        legacy_counterexamples = lambda queries, p: EscapeClient.counterexamples(
            client, queries, p
        )
        client.counterexamples = legacy_counterexamples
        with pytest.warns(DeprecationWarning, match="'cache' parameter"):
            records = run_query_group(client, [qa, qb], TracerConfig())
        assert records[qa].status is QueryStatus.PROVEN
        assert records[qb].status is QueryStatus.IMPOSSIBLE

    def test_cache_aware_client_does_not_warn(self):
        client, qa, qb = two_query_client()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            records = run_query_group(client, [qa, qb], TracerConfig())
        assert records[qa].status is QueryStatus.PROVEN


class TestChargeAccounting:
    """Pin the per-query time attribution of a group round.

    A query proven directly by the round's forward run must be charged
    its share of the selection + forward time but none of the backward
    meta-analysis time, which is charged per-survivor.
    """

    FORWARD = 8.0
    BACKWARD = 10.0

    def test_proven_query_not_charged_for_backward_passes(self, monkeypatch):
        client, qa, qb = two_query_client()

        class FakeClock:
            def __init__(self):
                self.now = 0.0

            def __call__(self):
                return self.now

        clock = FakeClock()

        real_counterexamples = client.counterexamples

        def timed_counterexamples(queries, p, cache=None):
            clock.now += self.FORWARD
            return real_counterexamples(queries, p, cache=cache)

        client.counterexamples = timed_counterexamples

        real_backward = tracer_mod.backward_trace

        def timed_backward(*args, **kwargs):
            clock.now += self.BACKWARD
            return real_backward(*args, **kwargs)

        monkeypatch.setattr(tracer_mod, "backward_trace", timed_backward)

        records = run_query_group(
            client, [qa, qb], TracerConfig(), clock=clock
        )
        # Round 1 (group {qa, qb}): forward costs 8s, split two ways.
        # qa is proven by that run: exactly its 4s share, no backward
        # time.  qb survives and pays its own 10s backward pass; round
        # 2 selects no abstraction (viable set empty) and costs 0s.
        assert records[qa].status is QueryStatus.PROVEN
        assert records[qa].time_seconds == pytest.approx(self.FORWARD / 2)
        assert records[qb].status is QueryStatus.IMPOSSIBLE
        assert records[qb].time_seconds == pytest.approx(
            self.FORWARD / 2 + self.BACKWARD
        )
        # Conservation: all advanced time is attributed to some query.
        total = sum(r.time_seconds for r in records.values())
        assert total == pytest.approx(clock.now)


class TestCacheAwareDetection:
    """The deprecation shim itself (not just its driver-level effect)."""

    def test_legacy_signature_warns_and_disables_cache(self):
        client, _qa, _qb = two_query_client()
        client.counterexamples = lambda queries, p: {}
        with pytest.warns(DeprecationWarning, match="cache"):
            assert tracer_mod._cache_aware(client) is False

    def test_cache_keyword_accepted_without_warning(self):
        client, _qa, _qb = two_query_client()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert tracer_mod._cache_aware(client) is True

    def test_uninspectable_callable_treated_as_legacy(self):
        client, _qa, _qb = two_query_client()

        class Odd:
            def __call__(self, *args):  # pragma: no cover - never called
                return {}

            @property
            def __signature__(self):
                raise ValueError("no signature")

        client.counterexamples = Odd()
        with pytest.warns(DeprecationWarning):
            assert tracer_mod._cache_aware(client) is False


class TestCacheAwareMemo:
    """``_cache_aware`` inspects each ``counterexamples`` function once;
    callables set on an instance are inspected on every call."""

    @staticmethod
    def _count_signatures(monkeypatch):
        calls = []
        real = tracer_mod.inspect.signature

        def counting(obj, *args, **kwargs):
            calls.append(obj)
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(tracer_mod.inspect, "signature", counting)
        return calls

    def test_bound_method_is_inspected_once_per_function(self, monkeypatch):
        class Aware(EscapeClient):
            def counterexamples(self, queries, p, cache=None):
                return super().counterexamples(queries, p, cache=cache)

        clients = [two_query_client(Aware)[0] for _ in range(2)]
        calls = self._count_signatures(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for client in clients * 3:
                assert tracer_mod._cache_aware(client) is True
        assert len(calls) == 1

    def test_legacy_method_is_inspected_once_and_warns_every_call(
        self, monkeypatch
    ):
        class Legacy(EscapeClient):
            def counterexamples(self, queries, p):
                return super().counterexamples(queries, p)

        clients = [two_query_client(Legacy)[0] for _ in range(2)]
        calls = self._count_signatures(monkeypatch)
        for client in clients * 2:
            with pytest.warns(DeprecationWarning, match="'cache' parameter"):
                assert tracer_mod._cache_aware(client) is False
        assert len(calls) == 1

    def test_instance_callable_is_inspected_every_call(self, monkeypatch):
        client, _qa, _qb = two_query_client()
        calls = self._count_signatures(monkeypatch)
        client.counterexamples = lambda queries, p, cache=None: {}
        assert tracer_mod._cache_aware(client) is True
        assert tracer_mod._cache_aware(client) is True
        client.counterexamples = lambda queries, p: {}
        with pytest.warns(DeprecationWarning):
            assert tracer_mod._cache_aware(client) is False
        assert len(calls) == 3


class TestChargeConservation:
    """Satellite: the `_charge` split must conserve wall time.

    Whatever mix of shared (selection + forward) and per-survivor
    (backward) costs a group run incurs, the per-query `time_seconds`
    must sum to the total time the clock advanced."""

    def test_charge_splits_equally(self):
        states = [tracer_mod._QueryState(q, None) for q in "abc"]
        tracer_mod._charge(states, 3.0, 6.0)
        assert [s.elapsed for s in states] == [1.0, 1.0, 1.0]
        assert [s.steps for s in states] == [2.0, 2.0, 2.0]
        tracer_mod._charge(states[:1], 0.5, 0.0)
        assert states[0].elapsed == pytest.approx(1.5)
        assert states[0].steps == 2.0

    def test_charge_empty_group_is_noop(self):
        tracer_mod._charge([], 5.0, 5.0)

    def test_group_split_sums_to_wall_time(self, monkeypatch):
        """A 2-query group that splits (one proven round 1, the other
        driven to impossibility) conserves every advanced second."""
        client, qa, qb = two_query_client()

        class FakeClock:
            now = 0.0

            def __call__(self):
                return self.now

        clock = FakeClock()
        real_counterexamples = client.counterexamples

        def timed_counterexamples(queries, p, cache=None):
            clock.now += 1.0 + 0.5 * len(queries)  # group-size-dependent
            return real_counterexamples(queries, p, cache=cache)

        client.counterexamples = timed_counterexamples
        real_backward = tracer_mod.backward_trace

        def timed_backward(*args, **kwargs):
            clock.now += 2.25
            return real_backward(*args, **kwargs)

        monkeypatch.setattr(tracer_mod, "backward_trace", timed_backward)
        records = run_query_group(client, [qa, qb], TracerConfig(), clock=clock)
        total = sum(r.time_seconds for r in records.values())
        assert clock.now > 0
        assert total == pytest.approx(clock.now, rel=1e-9)


class TestCacheOnRealWorkload:
    """The acceptance check: a multi-group escape workload hits the
    cache without changing any query's outcome."""

    @pytest.fixture(scope="class")
    def lusearch(self):
        from repro.bench.harness import prepare

        return prepare("lusearch")

    def test_escape_suite_has_hits_and_identical_results(self, lusearch):
        from repro.bench.harness import evaluate_benchmark
        from repro.core.tracer import TracerConfig as Config

        on = evaluate_benchmark(
            lusearch,
            "escape",
            Config(k=5, max_iterations=30, forward_cache_size=64),
        )
        off = evaluate_benchmark(
            lusearch,
            "escape",
            Config(k=5, max_iterations=30, forward_cache_size=None),
        )
        assert on.forward_hits > 0
        assert off.forward_hits == 0
        key = lambda r: (
            r.query_id,
            r.status,
            r.abstraction,
            r.abstraction_cost,
            r.iterations,
        )
        assert [key(r) for r in on.records] == [key(r) for r in off.records]
        # Record-level accounting agrees with the engine-level counters.
        assert sum(r.forward_cache_hits for r in on.records) >= on.forward_hits
