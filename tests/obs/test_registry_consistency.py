"""Regression tests: every counter report derives from one registry.

`EvalResult`'s counter fields are computed *from* the registry
snapshot, so the JSON export, the tables, and the trace metric records
cannot disagree with the caches' own counters (a copy threaded by hand
once double-counted `ForwardRunCache.hit_rate`) — these tests pin
that.
"""

import pytest

from repro.bench.harness import (
    analysis_setups,
    client_cache_counters,
    counters_from_metrics,
    evaluate_benchmark,
    prepare,
)
from repro.core.tracer import ForwardRunCache, Tracer, TracerConfig
from repro.obs import metrics as obs_metrics


@pytest.fixture(scope="module")
def tsp_result():
    return evaluate_benchmark(
        prepare("tsp"), "escape", TracerConfig(k=5, max_iterations=30)
    )


class TestSingleSourceOfTruth:
    def test_legacy_fields_equal_registry_snapshot(self, tsp_result):
        """The fields exported into the JSON report (forward_hits,
        forward_misses, wp_cache, dispatch_cache) must
        equal the totals of the run's registry snapshot."""
        result = tsp_result
        assert result.metrics, "evaluation must capture a registry snapshot"
        forward, wp_cache, dispatch_cache = counters_from_metrics(result.metrics)
        assert result.forward_hits == forward.hits
        assert result.forward_misses == forward.misses
        assert (result.wp_cache.hits, result.wp_cache.misses) == (
            wp_cache.hits,
            wp_cache.misses,
        )
        assert (result.dispatch_cache.hits, result.dispatch_cache.misses) == (
            dispatch_cache.hits,
            dispatch_cache.misses,
        )

    def test_snapshot_has_hierarchical_names(self, tsp_result):
        names = set(tsp_result.metrics)
        assert "forward_run" in names
        assert any(n.startswith("wp_memo.") for n in names)
        assert any(n.startswith("dispatch.") for n in names)

    def test_hit_rate_consistent_with_registry(self):
        """`ForwardRunCache.hit_rate` and the registry's counters are
        two views of the same owned integers — never separate copies."""
        with obs_metrics.scoped_registry() as registry:
            cache = ForwardRunCache(max_entries=4)
            cache.hits, cache.misses = 3, 1
            counters = registry.counters("forward_run")
            assert (counters.hits, counters.misses) == (cache.hits, cache.misses)
            assert cache.hit_rate == pytest.approx(
                counters.hits / (counters.hits + counters.misses)
            )

    def test_multi_client_snapshot_covers_every_workload(self):
        """Regression: with several clients per analysis (one typestate
        client per tracked site), a client collected before the final
        snapshot must not drop its counters from the totals — the
        registry holds weak references, so the harness has to keep the
        setups alive until it reads the snapshot."""
        bench = prepare("weblech")
        config = TracerConfig(k=5, max_iterations=30)
        setups = analysis_setups(bench, "typestate")
        assert len(setups) > 1, "needs a multi-client workload"
        # Ground truth: run every workload while explicitly holding all
        # clients, then sum the counters each client accumulated.
        cache = ForwardRunCache(config.forward_cache_size)
        for client, queries in setups:
            Tracer(client, config, forward_cache=cache).solve_all(queries)
        wp_hits = wp_misses = 0
        for client, _queries in setups:
            wp, _dispatch = client_cache_counters(client)
            wp_hits += wp.hits
            wp_misses += wp.misses
        result = evaluate_benchmark(bench, "typestate", config)
        assert (result.wp_cache.hits, result.wp_cache.misses) == (
            wp_hits,
            wp_misses,
        )

    def test_sibling_dispatch_misses_count_distinct_table_keys(self):
        """Sibling typestate clients share one compiled store but each
        registers and counts its own lookups, so their summed misses
        are the tables compiled: one per distinct table key."""
        bench = prepare("weblech")
        config = TracerConfig(k=5, max_iterations=30)
        with obs_metrics.scoped_registry() as registry:
            setups = analysis_setups(bench, "typestate")
            cache = ForwardRunCache(config.forward_cache_size)
            for client, queries in setups:
                Tracer(client, config, forward_cache=cache).solve_all(queries)
            snapshot = registry.snapshot()
            assert registry.source_count("dispatch.typestate") == len(setups)
        store = setups[0][0].analysis.semantics.compiled_store
        assert snapshot["dispatch.typestate"].misses == len(store)

    def test_per_record_hits_sum_to_registry_total(self, tsp_result):
        """The per-query `forward_cache_hits` accounting must agree
        with the registry's forward_run total: a cached round is
        charged to every group member, so the record-level sum is at
        least the cache-level count and both move together."""
        result = tsp_result
        record_hits = sum(r.forward_cache_hits for r in result.records)
        assert record_hits >= result.forward_hits
        if result.forward_hits == 0:
            assert record_hits == 0
