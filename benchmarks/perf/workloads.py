"""One pass of one perf-benchmark workload, in a fresh process.

``run.py`` starts this file once per pass, with the interpreter's hash
seed pinned, ``src`` on the path and a temporary working directory, and
reads the JSON written to ``--result``.  Passes never share a process:
later passes in one process run on a grown heap and slow down, while a
user's ``repro eval`` always starts fresh.  Modes:

* ``pass``: set up, run one pass (with every layer entry point wrapped
  under ``--traced``, see ``layers.py``), check its outputs against
  ``expected/<workload>.json``, and report it;
* ``probe``: set up and report the set-up time only.

Set-up time runs from ``--spawned-at``, the ``time.monotonic()``
reading ``run.py`` took just before starting this process (Linux's
monotonic clock is shared by all processes), to the moment the workload
can start solving.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.bench import harness, parallel
from repro.bench.generators import synthesize
from repro.bench.suite import BENCHMARK_NAMES, benchmark_profiles, benchmark_scaled
from repro.core.tracer import TracerConfig
from repro.obs.export import parse_prometheus
from repro.robust.certify import check_certificate
from repro.robust.faults import FaultPlan, fault_scope
from repro.serve.client import ServeClient, ServeError
from repro.serve.store import verify_store

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

#: The solver configuration ``repro eval`` builds.
CONFIG = TracerConfig(k=5, max_iterations=30)
ANALYSES = ("typestate", "escape")
SMALL = ("tsp", "elevator", "hedc", "weblech")
JOBS = 2
#: Avrora's cold escape solve alone takes ~20s, longer than a stream.
SERVE_KEYS = tuple(
    (name, analysis)
    for name in BENCHMARK_NAMES
    if name != "avrora"
    for analysis in ANALYSES
)
SERVE_REQUESTS = 1000
#: Generator-seed offset of the held-out programs typestate-x2 certifies.
HELD_OUT_SHIFT = 1000
RESOLVED = ("proven", "impossible")

#: Per-layer metrics measured from outside the spans; a workload that
#: does not exercise a layer reports 0 for it.
OUTSIDE_LAYER_METRICS = (
    "meta.wp_hit_rate",
    "tracer.forward_cache_hit_rate",
    "tracer.rounds",
    "scheduler.claims",
    "scheduler.steals",
    "scheduler.expiries",
    "scheduler.respawns",
    "scheduler.busy_s",
    "scheduler.idle_s",
    "scheduler.serial_ref_s",
    "leases.records",
    "leases.bytes",
    "clausebus.records",
    "server.overhead_ms",
    "server.queue_s",
    "session.replay_units",
    "session.cold_units",
    "serve.phase.forward_s",
    "serve.phase.backward_s",
    "serve.phase.synthesis_s",
    "store.bytes",
    "store.entries",
    "store.hit_rate",
)


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024 / 1e6  # ru_maxrss is in KiB


@dataclasses.dataclass
class Pass:
    """What one pass of a workload produced."""

    wall: float
    cpu: float
    #: Latency of every op that completed (queries or requests).
    op_seconds: List[float]
    #: Golden-comparable output per key ``"<benchmark>:<analysis>"``.
    outputs: Dict[str, list]
    #: Serve only: ``(key, entries or None)`` per request, in order.
    replies: List[Tuple[str, Optional[list]]] = dataclasses.field(default_factory=list)
    errors: List[str] = dataclasses.field(default_factory=list)
    #: Per-layer numbers measured from outside the process' spans.
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)


def diff_outputs(expected: Dict[str, list], actual: Dict[str, list]):
    """Compare outputs entry by entry, in order (query ids repeat across
    the typestate clients of one benchmark).  Returns ``(attempted,
    failed, mismatches)``: an entry on either side is one op, failed
    unless both sides hold the same entry at that position."""
    attempted = failed = 0
    mismatches: List[str] = []
    for key in sorted(set(expected) | set(actual)):
        want = expected.get(key, [])
        got = actual.get(key, [])
        for index in range(max(len(want), len(got))):
            attempted += 1
            left = want[index] if index < len(want) else None
            right = got[index] if index < len(got) else None
            if left != right:
                failed += 1
                mismatches.append(f"{key} #{index}: expected {left}, got {right}")
    return attempted, failed, mismatches


class Workload:
    """A workload's inputs come from its seed alone; the hooks below
    default to doing nothing."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def start(self, spawned_at: float) -> float:
        """Set up for a pass; returns the set-up time in seconds."""
        raise NotImplementedError

    def stop(self) -> None:
        """Release what :meth:`start` acquired (idempotent)."""

    def extra_checks(self) -> Tuple[int, int, List[str]]:
        """Untimed ops checked once per run: ``(attempted, failed,
        mismatches)``."""
        return 0, 0, []

    def after_trace(self, run: Pass) -> Dict[str, float]:
        """Per-layer numbers measured after the traced pass."""
        return {}


# -- eval workloads -----------------------------------------------------------


def record_entry(record) -> list:
    abstraction = record.abstraction
    return [
        record.query_id,
        record.status.value,
        record.abstraction_cost,
        sorted(abstraction) if abstraction is not None else None,
        record.iterations,
    ]


def eval_pass(results, wall: float, cpu: float, errors: List[str]) -> Pass:
    outputs = {
        f"{name}:{analysis}": [record_entry(r) for r in result.records]
        for (name, analysis), result in results.items()
    }
    records = [r for result in results.values() for r in result.records]
    wp_hits = sum(result.wp_cache.hits for result in results.values())
    wp_total = sum(result.wp_cache.total for result in results.values())
    forward_hits = sum(result.forward_hits for result in results.values())
    forward_total = forward_hits + sum(
        result.forward_misses for result in results.values()
    )
    errors = errors + [
        unit for result in results.values() for unit in result.failed_units
    ]
    return Pass(
        wall=wall,
        cpu=cpu,
        op_seconds=[r.time_seconds for r in records],
        outputs=outputs,
        errors=errors,
        layer={
            "meta.wp_hit_rate": wp_hits / wp_total if wp_total else 0.0,
            "tracer.forward_cache_hit_rate": (
                forward_hits / forward_total if forward_total else 0.0
            ),
            "tracer.rounds": sum(r.iterations for r in records),
        },
    )


class SerialEval(Workload):
    """Serial ``evaluate_benchmark`` over every (benchmark, analysis)
    pair, in suite order.  The seed does not reorder them: the order
    moves a pass by ~10%, through the heap size each collection sees."""

    name = "eval-full"
    analyses = ANALYSES

    def programs(self) -> Dict[str, object]:
        """Benchmark name -> front program (``None``: the suite's own)."""
        return dict.fromkeys(BENCHMARK_NAMES)

    def start(self, spawned_at: float) -> float:
        self.instances = {
            name: harness.prepare(name, front)
            for name, front in self.programs().items()
        }
        return time.monotonic() - spawned_at

    def evaluate(self, traced: bool):
        """Evaluate every unit: ``(results by (benchmark, analysis),
        errors)``."""
        results = {}
        errors: List[str] = []
        for name, bench in self.instances.items():
            for analysis in self.analyses:
                try:
                    results[(name, analysis)] = harness.evaluate_benchmark(
                        bench, analysis, CONFIG
                    )
                except Exception as error:  # a failed unit is a result here
                    errors.append(f"{name}:{analysis}: {error!r}")
        return results, errors

    def run_pass(self, traced: bool = False) -> Pass:
        cpu = cpu_seconds()
        started = time.perf_counter()
        results, errors = self.evaluate(traced)
        wall = time.perf_counter() - started
        return eval_pass(results, wall, cpu_seconds() - cpu, errors)

    def check(self, expected: Dict[str, list], run: Pass):
        attempted, failed, mismatches = diff_outputs(expected, run.outputs)
        return attempted, failed, run.errors + mismatches


class ScaledTypestate(SerialEval):
    """Serial typestate eval of the four small benchmarks synthesized at
    twice their size; untimed, held-out programs drawn from the seed are
    certified."""

    name = "typestate-x2"
    analyses = ("typestate",)

    def programs(self) -> Dict[str, object]:
        return {f"{name}-x2": benchmark_scaled(name, 2.0) for name in SMALL}

    def extra_checks(self):
        """Certify every verdict on the four small profiles re-seeded by
        the workload seed, each certificate checked by
        :func:`check_certificate` against freshly built clients."""
        attempted = failed = 0
        mismatches: List[str] = []
        profiles = benchmark_profiles()
        for name in SMALL:
            profile = profiles[name]
            front = synthesize(
                dataclasses.replace(
                    profile, seed=profile.seed + HELD_OUT_SHIFT + self.seed
                )
            )
            bench = harness.prepare(f"{name}-held-out", front)
            result = harness.evaluate_benchmark(
                bench, "typestate", CONFIG, options=parallel.RunOptions(certify=True)
            )
            setups = harness.analysis_setups(bench, "typestate")
            certified = 0
            for cert in result.certificates:
                stamp = cert["client"]
                client, queries = setups[stamp["index"]]
                report = check_certificate(client, queries[stamp["query_index"]], cert)
                certified += report.ok
                if not report.ok:
                    mismatches.append(f"held-out {name} {cert['query']}: {report.problems}")
            attempted += len(result.records)
            failed += len(result.records) - certified
        return attempted, failed, mismatches


class ParallelEval(SerialEval):
    """``evaluate_many`` over the four small benchmarks with two workers
    and the default run options (lease scheduler plus clause bus), in
    suite order: reordering the units moves the makespan by ~12%."""

    name = "eval-jobs2"

    def programs(self) -> Dict[str, object]:
        return dict.fromkeys(SMALL)

    def run_units(self, jobs: int, options: parallel.RunOptions):
        per_name = parallel.evaluate_many(
            self.instances, self.analyses, CONFIG, jobs=jobs, options=options
        )
        return {
            (name, analysis): result
            for name, per_analysis in per_name.items()
            for analysis, result in per_analysis.items()
        }

    def evaluate(self, traced: bool):
        # The traced run keeps its lease log and clause bus to measure
        # them; otherwise the scheduler uses a throwaway log.
        options = (
            parallel.RunOptions(lease_path="traced.leases")
            if traced
            else parallel.RunOptions()
        )
        try:
            return self.run_units(JOBS, options), []
        except Exception as error:  # a failed run is a result here
            return {}, [f"evaluate_many: {error!r}"]

    def after_trace(self, run: Pass) -> Dict[str, float]:
        """Scheduler counters, the lease log and clause bus of the traced
        pass, and a serial run of the same units in the same process."""
        stats = parallel.last_scheduler_stats()
        busy = sum(run.op_seconds)
        started = time.perf_counter()
        self.run_units(1, parallel.RunOptions())
        serial = time.perf_counter() - started

        def lines(path: str) -> int:
            with open(path, "rb") as handle:
                return sum(1 for _line in handle)

        return {
            "scheduler.claims": stats.get("claims", 0),
            "scheduler.steals": stats.get("steals", 0),
            "scheduler.expiries": stats.get("expiries", 0),
            "scheduler.respawns": stats.get("respawns", 0),
            "scheduler.busy_s": busy,
            "scheduler.idle_s": JOBS * run.wall - busy,
            "scheduler.serial_ref_s": serial,
            "leases.records": lines("traced.leases"),
            "leases.bytes": os.path.getsize("traced.leases"),
            "clausebus.records": lines("traced.leases.bus"),
        }


# -- serve workload -----------------------------------------------------------


class Daemon:
    """A ``repro serve`` subprocess with CLI defaults and its own store,
    socket and log in the working directory."""

    def __init__(self):
        self.store = "daemon.store"
        # A relative socket path stays under the AF_UNIX length limit
        # wherever the checkout lives.
        socket_path = "daemon.sock"
        self.log = open("daemon.log", "w")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", socket_path, "--store", self.store],
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.client = ServeClient(socket_path, timeout=120.0, retries=0)
        while True:
            try:
                self.client.ping()
                break
            except ServeError:
                if self.process.poll() is not None or time.perf_counter() - started > 60:
                    self.stop()
                    raise RuntimeError("the daemon did not start; see daemon.log")
                time.sleep(0.002)
        self.setup_seconds = time.perf_counter() - started

    def stop(self) -> None:
        """Shut the daemon down gracefully and wait for it to exit."""
        if self.log.closed:
            return
        try:
            if self.process.poll() is None:
                self.client.shutdown()
            self.process.wait(timeout=60)
        except (ServeError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self.log.close()


def prometheus_value(parsed, name: str, **labels) -> float:
    for sample_labels, value in parsed.get(name, []):
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            return value
    return 0.0


def reply_entries(reply: dict) -> list:
    return [
        [r["query"], r["verdict"], r["abstraction"], r["iterations"]]
        for r in reply["results"]
    ]


class ServeStream(Workload):
    """One closed-loop client sending a seeded stream of ``solve-bench``
    requests to a fresh daemon with an empty store: the first request
    per key solves cold and appends to the store, the rest replay.
    Set-up is the daemon's, from its spawn to its first ``ping`` reply."""

    name = "serve-stream"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        requests = list(SERVE_KEYS) + rng.choices(
            SERVE_KEYS, k=SERVE_REQUESTS - len(SERVE_KEYS)
        )
        rng.shuffle(requests)
        self.requests = requests
        self.daemon: Optional[Daemon] = None

    def start(self, spawned_at: float) -> float:
        self.cpu_started = cpu_seconds()
        self.daemon = Daemon()
        return self.daemon.setup_seconds

    def stop(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()

    def run_pass(self, traced: bool = False) -> Pass:
        daemon = self.daemon
        latencies: List[float] = []
        overheads: List[float] = []
        replies: List[Tuple[str, Optional[list]]] = []
        errors: List[str] = []
        started = time.perf_counter()
        for name, analysis in self.requests:
            key = f"{name}:{analysis}"
            sent = time.perf_counter()
            try:
                reply = daemon.client.solve_benchmark(name, analysis)
            except ServeError as error:
                replies.append((key, None))
                errors.append(f"{key}: {error}")
                continue
            latency = time.perf_counter() - sent
            latencies.append(latency)
            overheads.append(latency - reply["seconds"])
            replies.append((key, reply_entries(reply)))
        wall = time.perf_counter() - started
        metrics = parse_prometheus(daemon.client.metrics()["prometheus"])
        daemon.stop()
        # The daemon and its worker are reaped now, so their CPU counts.
        cpu = cpu_seconds() - self.cpu_started
        problems, summary = verify_store(daemon.store)
        errors.extend(f"store: {problem}" for problem in problems)
        outputs: Dict[str, list] = {}
        for key, entries in replies:
            if entries is not None:
                outputs.setdefault(key, entries)
        layer = {
            "tracer.rounds": sum(e[3] for entries in outputs.values() for e in entries),
            "server.overhead_ms": statistics.median(overheads) * 1000 if overheads else 0.0,
            "server.queue_s": prometheus_value(metrics, "repro_request_queue_seconds_sum"),
            "session.replay_units": prometheus_value(
                metrics, "repro_warm_tier_total", tier="replay"
            ),
            "session.cold_units": prometheus_value(
                metrics, "repro_warm_tier_total", tier="cold"
            ),
            "store.bytes": summary["bytes"],
            "store.entries": summary["entries"],
            "store.hit_rate": prometheus_value(metrics, "repro_store_hit_rate"),
        }
        for phase in ("forward", "backward", "synthesis"):
            layer[f"serve.phase.{phase}_s"] = prometheus_value(
                metrics, "repro_phase_seconds_sum", phase=phase
            )
        return Pass(wall, cpu, latencies, outputs, replies, errors, layer)

    def check(self, expected: Dict[str, list], run: Pass):
        """One op per request, plus one for the store's integrity."""
        mismatches = list(run.errors)
        failed = sum(1 for _key, entries in run.replies if entries is None)
        for key, entries in run.replies:
            if entries is not None and entries != expected.get(key):
                failed += 1
                mismatches.append(f"{key}: reply differs from the expected verdicts")
        store_failed = any(error.startswith("store:") for error in run.errors)
        return len(run.replies) + 1, failed + store_failed, mismatches


WORKLOADS = {
    cls.name: cls for cls in (SerialEval, ScaledTypestate, ParallelEval, ServeStream)
}


# -- one process --------------------------------------------------------------


def expected_path(workload: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload}.json")


def load_expected(workload: str) -> Dict[str, list]:
    with open(expected_path(workload)) as handle:
        return json.load(handle)["outputs"]


def record_expected(workload: str, run: Pass) -> None:
    """Write the golden file, one query's entry per line."""
    if run.errors:
        raise RuntimeError(f"not recording a failed pass: {run.errors[:3]}")
    keys = [
        f"  {json.dumps(key)}: [\n"
        + ",\n".join(f"   {json.dumps(entry)}" for entry in entries)
        + "\n  ]"
        for key, entries in sorted(run.outputs.items())
    ]
    with open(expected_path(workload), "w") as handle:
        handle.write(f'{{"workload": {json.dumps(workload)}, "outputs": {{\n')
        handle.write(",\n".join(keys) + "\n}}\n")


def run_one_pass(workload: Workload, args) -> dict:
    plan = FaultPlan.from_specs(args.inject) if args.inject else None
    recorder = layers.Recorder()
    with contextlib.ExitStack() as stack:
        if args.traced:
            stack.enter_context(layers.installed(recorder))
            stack.enter_context(recorder.span(layers.ROOT))
        stack.callback(workload.stop)
        setup_seconds = workload.start(args.spawned_at)
        with fault_scope(plan):
            run = workload.run_pass(traced=args.traced)
    peak = peak_rss_mb()
    if args.record_expected:
        record_expected(workload.name, run)
    attempted, failed, mismatches = workload.check(load_expected(workload.name), run)
    if args.first_pass:
        extra = workload.extra_checks()
        attempted, failed = attempted + extra[0], failed + extra[1]
        mismatches += extra[2]
    entries = [entry for key in run.outputs for entry in run.outputs[key]]
    result = {
        "setup_seconds": setup_seconds,
        "wall": run.wall,
        "cpu": run.cpu,
        "op_seconds": run.op_seconds,
        "resolved": sum(1 for entry in entries if entry[1] in RESOLVED),
        "total": len(entries),
        "peak_rss_mb": peak,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
    }
    if args.traced:
        metrics = dict.fromkeys(OUTSIDE_LAYER_METRICS, 0)
        metrics.update(run.layer)
        metrics.update(workload.after_trace(run))
        metrics.update(layers.span_metrics(recorder))
        result["layer"] = metrics
        if args.trace_out:
            layers.write_spans(args.trace_out, recorder.spans, workload.name)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("pass", "probe"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--first-pass", action="store_true",
                        help="also run the workload's once-per-run checks")
    parser.add_argument("--record-expected", action="store_true")
    parser.add_argument("--inject", action="append", default=[])
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    if args.mode == "probe":
        try:
            result = {"setup_seconds": workload.start(args.spawned_at)}
        finally:
            workload.stop()
    else:
        result = run_one_pass(workload, args)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
