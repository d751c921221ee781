"""End-to-end and per-layer performance benchmark of the TRACER reproduction.

Run from the repository root::

    python3 benchmarks/perf/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE]
        [--record-expected] [--inject SPEC]...

Every pass of a workload runs in a fresh process (``workloads.py``)
with ``PYTHONHASHSEED`` pinned, ``src`` on the path, and its temporary
files in ``benchmarks/perf/.work``.  ``--trace 0`` runs untraced passes
for at least ``--seconds`` (and at least the workload's minimum number
of passes) and reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` runs an untraced, a traced and
another untraced pass and reports the per-layer metrics.  Every metric is printed with its
unit, then one JSON line per workload with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKLOADS_PY = os.path.join(HERE, "workloads.py")

#: String hashing orders the formula layer's sets and dicts, which moves
#: a full eval's peak memory between ~630 MB and ~940 MB and its time
#: with it.  The hash seed is pinned so that runs compare the same work;
#: 0 is the heaviest of the seeds 0-3, 1 a typical one.
HASH_SEED = "1"
#: Set-up-only processes per timed run; every pass adds one more sample.
SETUP_PROBES = 5
#: Passes per timed run, at the least: enough for the median to drop an
#: outlier.  A full eval pass takes ~25s on its own.  The first pass
#: that uses both CPUs after an idle spell often runs 30-100% slow.
MIN_PASSES = {"eval-full": 1, "typestate-x2": 3, "eval-jobs2": 8, "serve-stream": 3}
#: The processes of one workload must end within this many seconds.
DEADLINE_SECONDS = 170


class BenchmarkError(RuntimeError):
    pass


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_child(workload: str, mode: str, args, deadline: float, extra=()) -> dict:
    """Run ``workloads.py`` once in a fresh process and return its result."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    result_path = os.path.join(workdir, "result.json")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = workdir
    command = [
        sys.executable, WORKLOADS_PY, "--mode", mode, "--workload", workload,
        "--seed", str(args.seed), "--result", result_path, *extra,
    ]
    for spec in args.inject:
        command += ["--inject", spec]
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        # Its own session, so that a timeout also stops the child's daemon.
        process = subprocess.Popen(
            command, cwd=workdir, env=env, stdout=sys.stderr, start_new_session=True
        )
        try:
            code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{workload} ran out of time")
        finally:
            # Also stops anything the child left behind.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        if code != 0:
            raise BenchmarkError(f"{workload} ({mode}) exited with code {code}")
        with open(result_path) as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(passes, setups) -> dict:
    op_seconds = [s for run in passes for s in run["op_seconds"]]
    total = sum(run["total"] for run in passes)
    return {
        "wall_s": statistics.median(run["wall"] for run in passes),
        "setup_s": statistics.median(setups),
        "op_p50_ms": percentile(op_seconds, 50) * 1000,
        "resolved_frac": sum(run["resolved"] for run in passes) / total if total else 0.0,
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in passes),
    }


def untraced_extras(passes) -> dict:
    """CPU time and tail latency of untraced passes: measured like the
    end-to-end metrics, but too noisy on a shared host to gate on."""
    op_seconds = [s for run in passes for s in run["op_seconds"]]
    return {
        "cpu_s": statistics.median(run["cpu"] for run in passes),
        "op_p90_ms": percentile(op_seconds, 90) * 1000,
    }


def run_workload(workload: str, args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_SECONDS
    if args.trace:
        # The first untraced pass warms the machine up; the overhead
        # compares the traced pass with the untraced one after it.
        extra = ["--traced"]
        if args.trace_out:
            extra += ["--trace-out", os.path.abspath(args.trace_out)]
        passes = [
            run_child(workload, "pass", args, deadline),
            run_child(workload, "pass", args, deadline, extra),
            run_child(workload, "pass", args, deadline),
        ]
        traced, timed = passes[1], passes[2]
        metrics = traced["layer"]
        metrics["trace.overhead_frac"] = (traced["wall"] - timed["wall"]) / timed["wall"]
        metrics.update(untraced_extras([passes[0], timed]))
        declared = spec["per_layer"]
    else:
        setups = [
            run_child(workload, "probe", args, deadline)["setup_seconds"]
            for _ in range(SETUP_PROBES)
        ]
        passes = []
        started = time.monotonic()
        while len(passes) < MIN_PASSES[workload] or time.monotonic() - started < args.seconds:
            extra = [] if passes else ["--first-pass"]
            if args.record_expected and not passes:
                extra.append("--record-expected")
            passes.append(run_child(workload, "pass", args, deadline, extra))
            log(f"{workload}: pass {len(passes)} took {passes[-1]['wall']:.3f}s")
        setups += [run["setup_seconds"] for run in passes]
        metrics = end_to_end(passes, setups)
        declared = spec["end_to_end"]
    names = [entry["name"] for entry in declared]
    if set(metrics) != set(names):
        raise BenchmarkError(
            f"{workload} reported metrics {sorted(metrics)}, declared {sorted(names)}"
        )
    attempted = sum(run["attempted"] for run in passes)
    failed = sum(run["failed"] for run in passes)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
        "passes": len(passes),
        "samples": sum(len(run["op_seconds"]) for run in passes),
        "mismatches": [m for run in passes for m in run["mismatches"]],
    }


def print_result(workload: str, result: dict) -> None:
    print(f"{workload}: attempted={result['attempted']} failed={result['failed']} "
          f"passes={result['passes']} op samples={result['samples']}")
    for mismatch in result["mismatches"][:10]:
        print(f"  MISMATCH {mismatch}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: draws serve-stream's requests and the "
                             "held-out programs typestate-x2 certifies")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="run passes for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced pass")
    parser.add_argument("--out", help="write all results to this JSON file")
    parser.add_argument("--trace-out", help="with --trace 1: write the spans as JSON lines")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected/<workload>.json from the first pass")
    parser.add_argument("--inject", action="append", default=[], metavar="SPEC",
                        help="install a repro fault spec around every pass")
    args = parser.parse_args(argv)
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")
    if args.record_expected and args.trace:
        parser.error("--record-expected needs --trace 0")
    # Exit through the cleanup in run_child, which stops the children.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    os.makedirs(WORK, exist_ok=True)
    if args.trace_out:
        open(args.trace_out, "w").close()
    results = {}
    try:
        for workload in args.workload or names:
            results[workload] = run_workload(workload, args, spec)
            print_result(workload, results[workload])
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                 "hash_seed": HASH_SEED, "workloads": results},
                handle, indent=1,
            )
    for result in results.values():
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
