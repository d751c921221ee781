"""Tests for the pull-model cache-counter registry (`repro.obs.metrics`)."""

import gc

from repro.core.stats import CacheCounters
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry, scoped_registry


class FakeCache:
    def __init__(self, hits=0, misses=0):
        self.hits = hits
        self.misses = misses


class TestRegistry:
    def test_snapshot_reads_live_sources(self):
        registry = MetricsRegistry()
        cache = FakeCache(hits=3, misses=1)
        registry.register("forward_run", cache)
        assert registry.snapshot() == {
            "forward_run": CacheCounters(hits=3, misses=1)
        }
        cache.hits = 10  # the registry pulls, it never copies
        assert registry.snapshot()["forward_run"].hits == 10

    def test_counters_sums_dotted_descendants(self):
        registry = MetricsRegistry()
        registry.register("wp_memo.typestate", FakeCache_keepalive[0])
        registry.register("wp_memo.escape", FakeCache_keepalive[1])
        registry.register("wp_memo_other", FakeCache_keepalive[2])
        total = registry.counters("wp_memo")
        assert (total.hits, total.misses) == (3, 30)  # excludes wp_memo_other
        assert registry.source_count("wp_memo") == 2

    def test_same_name_sources_sum(self):
        registry = MetricsRegistry()
        a, b = FakeCache(1, 0), FakeCache(2, 5)
        registry.register("forward_run", a)
        registry.register("forward_run", b)
        assert registry.snapshot()["forward_run"] == CacheCounters(3, 5)

    def test_dead_sources_are_pruned(self):
        registry = MetricsRegistry()
        cache = FakeCache(hits=9)
        registry.register("forward_run", cache)
        del cache
        gc.collect()
        assert registry.snapshot() == {}
        assert registry.source_count("forward_run") == 0

    def test_custom_reader(self):
        registry = MetricsRegistry()

        class Odd:
            good = 4
            bad = 2

        source = Odd()
        registry.register(
            "odd", source, reader=lambda s: CacheCounters(s.good, s.bad)
        )
        assert registry.snapshot()["odd"] == CacheCounters(4, 2)

    def test_snapshot_since_counts_traffic_after_the_reading(self):
        registry = MetricsRegistry()
        kept, dropped = FakeCache(hits=5, misses=2), FakeCache(hits=7)
        registry.register("dispatch", kept)
        registry.register("forward_run", dropped)
        since = registry.readings()
        kept.hits += 3
        late = FakeCache(hits=1, misses=1)  # registered after the reading
        registry.register("dispatch", late)
        del dropped  # collected after the reading: counts nothing
        gc.collect()
        assert registry.snapshot(since) == {
            "dispatch": CacheCounters(hits=4, misses=1)
        }
        assert registry.snapshot()["dispatch"] == CacheCounters(9, 3)


FakeCache_keepalive = [FakeCache(1, 10), FakeCache(2, 20), FakeCache(4, 40)]


class TestScoping:
    def test_scoped_registry_isolates_and_restores(self):
        before = obs_metrics.current_registry()
        cache = FakeCache(hits=1)
        with scoped_registry() as registry:
            assert obs_metrics.current_registry() is registry
            obs_metrics.register_cache("forward_run", cache)
            assert registry.source_count("forward_run") == 1
        assert obs_metrics.current_registry() is before
        # The scoped registration never reached the outer registry.
        with scoped_registry() as fresh:
            assert fresh.source_count("forward_run") == 0

    def test_nested_scopes(self):
        with scoped_registry() as outer:
            with scoped_registry() as inner:
                assert obs_metrics.current_registry() is inner
            assert obs_metrics.current_registry() is outer

    def test_explicit_registry_reuse(self):
        registry = MetricsRegistry()
        cache = FakeCache(hits=2, misses=2)
        with scoped_registry(registry):
            obs_metrics.register_cache("forward_run", cache)
        with scoped_registry(registry):
            obs_metrics.register_cache("forward_run", cache)
        assert registry.snapshot()["forward_run"] == CacheCounters(4, 4)


class TestRealCachesRegister:
    def test_forward_run_cache_registers_itself(self):
        from repro.core.tracer import ForwardRunCache

        with scoped_registry() as registry:
            cache = ForwardRunCache(max_entries=4)
            assert registry.source_count("forward_run") == 1
            cache.misses += 1  # simulate one cold fetch
            assert registry.counters("forward_run").misses == 1


class TestCounter:
    def test_unlabeled(self):
        from repro.obs.metrics import Counter

        counter = Counter("requests", "served requests")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3
        assert counter.samples() == [({}, 3)]

    def test_labeled_series_are_independent(self):
        from repro.obs.metrics import Counter

        counter = Counter("tiers", labelnames=("tier",))
        counter.inc(tier="cold")
        counter.inc(3, tier="replay")
        assert counter.value(tier="cold") == 1
        assert counter.value(tier="replay") == 3
        assert counter.value(tier="clauses") == 0
        assert dict(
            (labels["tier"], value) for labels, value in counter.samples()
        ) == {"cold": 1, "replay": 3}

    def test_rejects_negative_and_wrong_labels(self):
        import pytest

        from repro.obs.metrics import Counter

        counter = Counter("c", labelnames=("op",))
        with pytest.raises(ValueError):
            counter.inc(-1, op="x")
        with pytest.raises(ValueError):
            counter.inc(wrong="x")
        with pytest.raises(ValueError):
            counter.inc()  # missing the declared label


class TestGauge:
    def test_set_inc_dec(self):
        from repro.obs.metrics import Gauge

        gauge = Gauge("in_flight")
        gauge.set(5)
        gauge.dec()
        gauge.inc(3)
        assert gauge.value() == 7

    def test_callback_gauge_reads_at_sample_time(self):
        from repro.obs.metrics import Gauge

        state = {"rate": 0.25}
        gauge = Gauge("hit_rate")
        gauge.set_function(lambda: state["rate"])
        assert gauge.value() == 0.25
        state["rate"] = 0.75  # pulled, never copied
        assert gauge.samples() == [({}, 0.75)]


class TestHistogram:
    def test_buckets_and_sum(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        ((labels, series),) = histogram.samples()
        assert labels == {}
        assert series.counts == [1, 2, 1]  # <=0.1, <=1.0, overflow
        assert series.count == 4
        assert series.sum == 6.05

    def test_quantile_interpolates_within_bucket(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            histogram.observe(1.5)
        # All mass is in (1, 2]; the median interpolates to mid-bucket.
        assert 1.0 < histogram.quantile(0.5) <= 2.0

    def test_quantile_overflow_clamps_to_top_bound(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("lat", buckets=(1.0,))
        histogram.observe(100.0)
        assert histogram.quantile(0.99) == 1.0

    def test_quantile_empty_is_none(self):
        from repro.obs.metrics import Histogram

        assert Histogram("lat", buckets=(1.0,)).quantile(0.5) is None

    def test_merged_sums_label_series(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("lat", buckets=(1.0,), labelnames=("op",))
        histogram.observe(0.5, op="solve")
        histogram.observe(2.0, op="ping")
        merged = histogram.merged()
        assert merged.count == 2
        assert merged.counts == [1, 1]


class TestQuantileFromBuckets:
    def test_linear_interpolation(self):
        from repro.obs.metrics import quantile_from_buckets

        # 10 observations uniformly in (0, 10]: one bucket.
        assert quantile_from_buckets((10.0,), [10, 0], 0.5) == 5.0

    def test_empty_returns_none(self):
        from repro.obs.metrics import quantile_from_buckets

        assert quantile_from_buckets((1.0,), [0, 0], 0.5) is None


class TestInstrumentRegistration:
    def test_registration_is_weak(self):
        from repro.obs.metrics import Counter, MetricsRegistry

        registry = MetricsRegistry()
        counter = Counter("c")
        registry.register_instrument(counter)
        assert registry.instruments() == [counter]
        del counter
        gc.collect()
        assert registry.instruments() == []

    def test_registration_order_is_preserved(self):
        from repro.obs.metrics import Counter, Gauge, MetricsRegistry

        registry = MetricsRegistry()
        a, b = Counter("a"), Gauge("b")
        registry.register_instrument(a)
        registry.register_instrument(b)
        assert [i.name for i in registry.instruments()] == ["a", "b"]


class TestSessionLifecycle:
    """The satellite contract: a resident session's metrics persist
    across solves; a collected session's drop out of later scrapes."""

    TEXT = "x = new File\nx.open()\nx.close()\nobserve check1\n"

    def _solve(self, session):
        from repro.core.tracer import TracerConfig
        from repro.typestate.client import TypestateQuery

        client, *_rest = session.typestate_client(self.TEXT)
        return session.solve(
            client,
            [TypestateQuery("check1", frozenset({"closed"}))],
            TracerConfig(k=5, max_iterations=30),
        )

    def test_resident_session_metrics_persist_then_drop(self):
        from repro.serve.session import AnalysisSession

        with scoped_registry() as registry:
            session = AnalysisSession()
            self._solve(session)
            first = registry.source_count("forward_run")
            assert first == 1  # the session's resident forward cache
            hits_before = registry.counters("wp_memo").hits
            self._solve(session)
            # Reuse, not re-registration: still one source, counters
            # monotone across the second solve.
            assert registry.source_count("forward_run") == 1
            assert registry.counters("wp_memo").hits >= hits_before
            del session
            gc.collect()
            # The collected session's caches vanish from the scrape.
            assert registry.source_count("forward_run") == 0
