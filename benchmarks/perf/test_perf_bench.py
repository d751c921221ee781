"""Tests of the perf benchmark.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/perf``; the end-to-end
cases start ``run.py`` and take about a minute together.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_PY = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_bench(tmp_path, name: str, *args: str) -> dict:
    out = tmp_path / f"{name}.json"
    subprocess.run(
        [sys.executable, RUN_PY, *args, "--out", str(out)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, timeout=300,
    )
    return json.loads(out.read_text())


def assert_declared(result: dict, section: str) -> None:
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_wrappers_restore_every_patched_attribute():
    originals = [
        (owner, attribute, vars(owner)[attribute])
        for owner, attribute, _name in layers.patch_targets()
    ]
    with layers.installed(layers.Recorder()):
        for owner, attribute, original in originals:
            assert vars(owner)[attribute] is not original
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original
    with pytest.raises(KeyError):
        with layers.installed(layers.Recorder()):
            raise KeyError("inside the traced block")
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    recorder = layers.Recorder(clock=lambda: next(ticks))
    with recorder.span(layers.ROOT):
        with recorder.span("forward"):
            pass
        with recorder.span("backward"):
            with recorder.span("formula.to_dnf"):
                pass
    assert layers.self_times(recorder.spans) == {
        layers.ROOT: 3.0, "forward": 2.0, "backward": 4.0, "formula.to_dnf": 1.0,
    }


def test_perturbed_golden_entry_counts_as_failed():
    expected = workloads.load_expected("eval-jobs2")
    total = sum(len(entries) for entries in expected.values())
    assert workloads.diff_outputs(expected, expected)[:2] == (total, 0)
    perturbed = copy.deepcopy(expected)
    entry = perturbed["tsp:escape"][0]
    entry[1] = "impossible" if entry[1] == "proven" else "proven"
    attempted, failed, mismatches = workloads.diff_outputs(perturbed, expected)
    assert (attempted, failed) == (total, 1)
    assert mismatches[0].startswith("tsp:escape #0")
    del perturbed["tsp:escape"][-1]
    assert workloads.diff_outputs(perturbed, expected)[1] == 2

    served = workloads.load_expected("serve-stream")
    stream = workloads.ServeStream(seed=0)
    key = "tsp:escape"
    replies = [(key, served[key]), (key, served[key][:-1]), (key, None)]
    run = workloads.Pass(0.0, 0.0, [], {}, replies)
    assert stream.check(served, run)[:2] == (4, 2)


def test_compare_labels():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert compare.classify(base, base, 0.1, "lower") == "unchanged"
    assert compare.classify(base, [v * 1.3 for v in base], 0.1, "lower") == "worse"
    assert compare.classify(base, [v * 0.8 for v in base], 0.1, "lower") == "better"
    assert compare.classify(base, [v * 0.8 for v in base], 0.1, "higher") == "worse"
    assert compare.classify(base[:3], [v * 0.8 for v in base[:3]], 0.1, "lower") == "unchanged"
    noisy = [5.0, 10.0, 15.0, 8.0, 12.0]
    assert compare.classify(noisy, noisy, 0.1, "lower") == "unresolved"


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    result = run_bench(tmp_path, "timed", "--workload", "eval-jobs2", "--seconds", "1")
    run = result["workloads"]["eval-jobs2"]
    assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
    assert_declared(run, "end_to_end")
    assert all(m["value"] > 0 for m in run["metrics"].values())


def test_traced_runs_repeat_counts_and_account_for_the_wall(tmp_path):
    runs = [
        run_bench(tmp_path, f"traced{seed}", "--workload", "typestate-x2",
                  "--trace", "1", "--seed", str(seed))["workloads"]["typestate-x2"]
        for seed in (0, 1)
    ]
    for run in runs:
        assert run["correct"]
        assert_declared(run, "per_layer")
        metrics = {name: m["value"] for name, m in run["metrics"].items()}
        attributed = sum(metrics[name] for name in layers.SELF_METRICS.values())
        assert attributed == pytest.approx(metrics["trace.wall_s"], rel=0.01)
        assert metrics["formula.to_dnf.cubes"] > 0 and metrics["tracer.rounds"] > 0
    for name in ("formula.to_dnf.cubes", "tracer.rounds"):
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "eval-jobs2"],
        cwd=tmp_path, stdout=subprocess.PIPE, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == b""
