"""Serial-vs-parallel determinism of the evaluation harness."""

import pytest

from repro.bench.harness import evaluate_benchmark, prepare
from repro.bench.parallel import (
    evaluate_benchmark_parallel,
    evaluate_many,
    work_units,
)
from repro.core.tracer import TracerConfig

CONFIG = TracerConfig(k=5, max_iterations=30)


def record_key(record):
    """Everything about a record except wall-clock time."""
    return (
        record.query_id,
        record.status,
        record.abstraction,
        record.abstraction_cost,
        record.iterations,
        record.forward_runs,
        record.forward_cache_hits,
        record.max_disjuncts,
    )


@pytest.fixture(scope="module")
def instances():
    return {name: prepare(name) for name in ("tsp", "elevator")}


class TestWorkUnits:
    def test_typestate_units_follow_client_count(self, instances):
        from repro.bench.harness import analysis_setups

        bench = instances["elevator"]
        units = work_units(bench, "typestate")
        assert len(units) == len(analysis_setups(bench, "typestate"))
        assert [u.index for u in units] == list(range(len(units)))

    def test_escape_is_one_unit(self, instances):
        assert len(work_units(instances["tsp"], "escape")) == 1

    def test_standard_benchmarks_ship_no_program(self, instances):
        assert all(
            u.front is None for u in work_units(instances["tsp"], "typestate")
        )


class TestSerialParallelDeterminism:
    @pytest.mark.parametrize("name", ["tsp", "elevator"])
    @pytest.mark.parametrize("analysis", ["typestate", "escape"])
    def test_jobs4_matches_jobs1(self, instances, name, analysis):
        serial = evaluate_benchmark(instances[name], analysis, CONFIG, jobs=1)
        parallel = evaluate_benchmark(instances[name], analysis, CONFIG, jobs=4)
        assert [record_key(r) for r in serial.records] == [
            record_key(r) for r in parallel.records
        ]

    def test_evaluate_many_matches_serial(self, instances):
        serial = evaluate_many(instances, ("typestate", "escape"), CONFIG, jobs=1)
        parallel = evaluate_many(
            instances, ("typestate", "escape"), CONFIG, jobs=4
        )
        assert list(serial) == list(parallel)
        for name in serial:
            assert list(serial[name]) == list(parallel[name])
            for analysis in serial[name]:
                assert [
                    record_key(r) for r in serial[name][analysis].records
                ] == [record_key(r) for r in parallel[name][analysis].records]

    def test_custom_program_rides_along(self, instances):
        # A non-suite program must reach the workers by value.
        custom = prepare("tsp", instances["tsp"].front)
        assert not custom.standard
        serial = evaluate_benchmark(custom, "typestate", CONFIG, jobs=1)
        parallel = evaluate_benchmark(custom, "typestate", CONFIG, jobs=2)
        assert [record_key(r) for r in serial.records] == [
            record_key(r) for r in parallel.records
        ]

    def test_single_unit_falls_back_to_serial(self, instances):
        result = evaluate_benchmark(instances["tsp"], "escape", CONFIG, jobs=4)
        assert result.query_count > 0


class TestLeaseWorkerCounters:
    def test_resident_families_count_every_task(self):
        """A lease worker reuses one client family across its tasks of a
        ``(benchmark, analysis)`` pair; each task must still report its
        own traffic on the family's caches.  wp-memo and forward-run
        lookups do not depend on cache state, so their totals equal the
        serial eval's; each worker compiles its own dispatch tables, so
        those lookups can only be more."""
        small = ("tsp", "elevator", "hedc", "weblech")
        instances = {name: prepare(name) for name in small}
        analyses = ("typestate", "escape")
        serial = evaluate_many(instances, analyses, CONFIG, jobs=1)
        leased = evaluate_many(instances, analyses, CONFIG, jobs=2)
        for name in small:
            for analysis in analyses:
                expected = serial[name][analysis]
                got = leased[name][analysis]
                where = f"{name} {analysis}"
                assert got.wp_cache.total == expected.wp_cache.total, where
                assert (
                    got.forward_hits + got.forward_misses
                    == expected.forward_hits + expected.forward_misses
                ), where
                assert (
                    got.dispatch_cache.total >= expected.dispatch_cache.total
                ), where


class TestRenderedOutputDeterminism:
    def test_tables_and_figure_identical_after_time_normalisation(
        self, instances
    ):
        import dataclasses

        from repro.bench.figures import render_figure12
        from repro.bench.tables import render_table2
        from repro.core.stats import summarize_records

        def rendered(results):
            aggregates = {
                name: tuple(
                    summarize_records(
                        [
                            dataclasses.replace(r, time_seconds=0.0)
                            for r in results[name][analysis].records
                        ]
                    )
                    for analysis in ("typestate", "escape")
                )
                for name in results
            }
            return render_figure12(aggregates) + "\n" + render_table2(aggregates)

        serial = evaluate_many(instances, ("typestate", "escape"), CONFIG, jobs=1)
        parallel = evaluate_many(
            instances, ("typestate", "escape"), CONFIG, jobs=4
        )
        assert rendered(serial) == rendered(parallel)
