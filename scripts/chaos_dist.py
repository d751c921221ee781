#!/usr/bin/env python
"""Distributed chaos run: the lease scheduler under injected failures.

Evaluates the full suite (7 benchmarks x 3 analyses) on the
lease-based work-stealing scheduler with three workers while faults
fly — one worker SIGKILLs itself mid-task, one hangs permanently
(alive, silent) so its lease has to expire, and a global fault rule
makes every first attempt of a long-enough task raise once — and
asserts the contract of docs/ROBUSTNESS.md, "Leases and work
stealing":

1. every unit completes through lease reclamation (no failed units);
2. verdicts, records, and certificates are bit-identical to the
   serial oracle (one worker, same query-group decomposition, clause
   bus off);
3. lease_stolen / lease_expired events fired (the recovery actually
   happened — a run where nothing died proves nothing);
4. the clause bus carried learned rounds across attempts: with the
   bus on, clause_imported events fire and strictly fewer synthesis
   rounds run live than with --no-clause-bus, on the same faults;
5. the lease log itself passes the structural audit
   (:func:`repro.robust.leases.verify_lease_log`).

Exit code 0 means every assertion held.  Intended for the gating CI
chaos-dist job:

    PYTHONPATH=src python scripts/chaos_dist.py
"""

import os
import shutil
import sys
import tempfile

from repro import obs
from repro.bench.harness import prepare
from repro.bench.parallel import (
    RunOptions,
    evaluate_many,
    last_scheduler_stats,
)
from repro.core import TracerConfig
from repro.robust.clausebus import load_bus_records
from repro.robust.faults import FaultPlan
from repro.robust.leases import load_lease_records, verify_lease_log

BENCHMARKS = (
    "tsp", "elevator", "hedc", "weblech", "antlr", "avrora", "lusearch",
)
ANALYSES = ("typestate", "escape", "typestate-interproc")
CONFIG = TracerConfig(k=5, max_iterations=30)
GROUP_SIZE = 4

#: Every task's first attempt raises at its 4th abstraction choice
#: (once — the retry succeeds), so rounds published before the fault
#: are importable by whichever worker retries.
SHARED_FAULTS = ["choose:raise:at=4,attempt=0"]
#: Worker 0 SIGKILLs itself at its 3rd choice; worker 1 hangs (alive,
#: no heartbeats) on its first claim; worker 2 is clean.
WORKER_FAULTS = (
    ("choose:kill:at=3,attempt=0",),
    ("scheduler.hang:corrupt:at=1",),
    None,
)


def record_key(record):
    """Everything semantic about a record except wall-clock."""
    return (
        record.query_id,
        record.status,
        record.abstraction,
        record.abstraction_cost,
        record.iterations,
        record.max_disjuncts,
        record.forward_runs,
        record.forward_cache_hits,
    )


def flatten(results):
    out = {}
    for name in BENCHMARKS:
        for analysis in ANALYSES:
            out[(name, analysis)] = results[name][analysis]
    return out


def count_events(events, name):
    return sum(
        1
        for entry in events
        if entry.get("type") == "event" and entry.get("name") == name
    )


def count_live_rounds(events):
    return sum(
        1
        for entry in events
        if entry.get("type") == "span_start"
        and entry.get("name") == "iteration"
    )


def run_chaos(instances, lease_path, clause_bus):
    sink = obs.MemorySink()
    with obs.tracing(sink):
        results = evaluate_many(
            instances,
            ANALYSES,
            CONFIG,
            jobs=3,
            options=RunOptions(
                group_size=GROUP_SIZE,
                heartbeat_interval=0.1,
                lease_ttl=1.0,
                lease_path=lease_path,
                clause_bus=clause_bus,
                certify=True,
                fault_plan=FaultPlan.from_specs(SHARED_FAULTS),
                worker_faults=WORKER_FAULTS,
            ),
        )
    return flatten(results), sink.events, last_scheduler_stats()


def compare_to_oracle(label, oracle, chaos):
    failures = 0
    for pair, expected in oracle.items():
        actual = chaos[pair]
        where = f"{label} {pair[0]}:{pair[1]}"
        if actual.failed_units:
            print(f"FAIL {where}: failed units {actual.failed_units}")
            failures += 1
            continue
        want = [record_key(r) for r in expected.records]
        got = [record_key(r) for r in actual.records]
        if want != got:
            print(f"FAIL {where}: records diverged from the serial oracle")
            failures += 1
        if expected.certificates != actual.certificates:
            print(f"FAIL {where}: certificates diverged from the oracle")
            failures += 1
    if not failures:
        total = sum(len(r.records) for r in oracle.values())
        print(f"ok   {label}: {total} records bit-identical to the oracle")
    return failures


def main() -> int:
    failures = 0
    instances = {name: prepare(name) for name in BENCHMARKS}
    workdir = tempfile.mkdtemp(prefix="chaos-dist-")
    try:
        # The oracle: same group decomposition, one worker, no faults,
        # no clause bus — the uninterrupted run every chaos run must
        # reproduce bit for bit.
        oracle = flatten(
            evaluate_many(
                instances,
                ANALYSES,
                CONFIG,
                jobs=1,
                options=RunOptions(
                    group_size=GROUP_SIZE,
                    clause_bus=False,
                    certify=True,
                ),
            )
        )
        print(
            f"ok   oracle: {sum(len(r.records) for r in oracle.values())} "
            f"records across {len(oracle)} evaluations"
        )

        lease_on = os.path.join(workdir, "bus-on.leases")
        chaos_on, events_on, stats_on = run_chaos(
            instances, lease_on, clause_bus=True
        )
        failures += compare_to_oracle("chaos+bus", oracle, chaos_on)

        lease_off = os.path.join(workdir, "bus-off.leases")
        chaos_off, events_off, stats_off = run_chaos(
            instances, lease_off, clause_bus=False
        )
        failures += compare_to_oracle("chaos-no-bus", oracle, chaos_off)

        # The chaos actually happened: leases were stolen from the
        # killed worker (parent force-release) and expired under the
        # hung one (heartbeat timeout).
        for label, events, stats in (
            ("chaos+bus", events_on, stats_on),
            ("chaos-no-bus", events_off, stats_off),
        ):
            stolen = count_events(events, "lease_stolen")
            expired = count_events(events, "lease_expired")
            if stats.get("steals", 0) < 1 or stolen < 1:
                print(f"FAIL {label}: no lease was stolen (steals={stats})")
                failures += 1
            if stats.get("expiries", 0) < 1 or expired < 1:
                print(f"FAIL {label}: no lease expired (stats={stats})")
                failures += 1
            print(
                f"ok   {label}: steals={stats.get('steals')} "
                f"expiries={stats.get('expiries')} "
                f"claims={stats.get('claims')} "
                f"respawns={stats.get('respawns')}"
            )

        # Clause sharing pruned real work: published rounds were
        # imported by the retrying/stealing worker, and strictly fewer
        # synthesis rounds ran live than under the same faults with
        # the bus off.
        imported_on = count_events(events_on, "clause_imported")
        published_on = count_events(events_on, "clause_published")
        imported_off = count_events(events_off, "clause_imported")
        live_on = count_live_rounds(events_on)
        live_off = count_live_rounds(events_off)
        if imported_on < 1:
            print("FAIL chaos+bus: no clause_imported event fired")
            failures += 1
        if imported_off != 0:
            print(
                f"FAIL chaos-no-bus: clause_imported fired {imported_off}x "
                "with the bus disabled"
            )
            failures += 1
        if live_on >= live_off:
            print(
                f"FAIL clause bus did not prune live rounds: "
                f"{live_on} with bus vs {live_off} without"
            )
            failures += 1
        if not failures:
            print(
                f"ok   clause bus: published={published_on} "
                f"imported={imported_on}, live rounds {live_on} with bus "
                f"vs {live_off} without"
            )

        # Cross-worker evidence: at least one scope has bus rounds
        # published by a worker other than the one that durably
        # completed it (the killed worker's partial progress, replayed
        # by whoever stole the lease).
        publishers = {}
        for record in load_bus_records(lease_on + ".bus"):
            if record.get("type") == "round":
                publishers.setdefault(record["scope"], set()).add(
                    record.get("worker")
                )
        stolen_scopes = set()
        completer = {}
        for record in load_lease_records(lease_on):
            scope = ":".join(str(p) for p in record.get("task", []))
            if record.get("type") == "claim" and record.get("stolen_from"):
                stolen_scopes.add(scope)
            if record.get("type") == "complete":
                completer.setdefault(scope, record.get("worker"))
        shared = [
            scope
            for scope in stolen_scopes
            if scope in publishers and scope in completer
        ]
        if not shared:
            print(
                "FAIL chaos+bus: no stolen task had sibling-published "
                "rounds to import"
            )
            failures += 1
        else:
            print(
                f"ok   cross-worker: {len(shared)} stolen task(s) completed "
                f"with sibling-published rounds on the bus"
            )

        # The lease logs themselves audit clean.
        for label, path in (("bus-on", lease_on), ("bus-off", lease_off)):
            problems, summary = verify_lease_log(path)
            if problems:
                print(f"FAIL lease log {label}: {problems}")
                failures += 1
            else:
                counters = summary.get("counters", {})
                print(
                    f"ok   lease log {label}: verified "
                    f"({counters.get('claims', 0)} claims, "
                    f"{counters.get('completions', 0)} completions, "
                    f"{counters.get('duplicates', 0)} duplicates)"
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if failures:
        print(f"{failures} chaos-dist assertion(s) failed")
        return 1
    print("all chaos-dist assertions held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
