"""The decision loop of ``scripts/perf_gate.py``, driven by a fake runner
that writes canned ``benchmarks/perf/run.py --out`` results instead of
running the benchmark."""

import json
import os
import shutil

import pytest

from scripts import perf_gate

with open(os.path.join(perf_gate.ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
#: End-to-end metric values of a clean run; the timed ones get a jitter
#: of at most 2%, well inside every bound but ``resolved_frac``'s.
CLEAN = {
    "wall_s": 1.0,
    "setup_s": 0.3,
    "op_p50_ms": 2.0,
    "resolved_frac": 0.8,
    "peak_rss_mb": 80.0,
}


def result(call, scale=None, failed=0, attempted=100):
    """One workload's result for a side's ``call``-th run: ``CLEAN``
    jittered by the call number, each metric in ``scale`` multiplied."""
    jitter = 1 + 0.01 * (call * 7 % 5 - 2)
    metrics = {}
    for entry in SPEC["end_to_end"]:
        value = CLEAN[entry["name"]] * (scale or {}).get(entry["name"], 1.0)
        if entry["name"] != "resolved_frac":
            value *= jitter
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "mismatches": [],
    }


class FakeRunner:
    """Answers ``run(side, out)`` with ``results(side, call, workload)``
    for every workload (``None``: the run leaves that workload out),
    ``call`` counting that side's runs from 1; exits with
    ``exit_codes.get((side, call), 0)``."""

    def __init__(self, results=None, exit_codes=None):
        self.results = results or (lambda side, call, workload: result(call))
        self.exit_codes = exit_codes or {}
        self.calls = []

    def __call__(self, side, out):
        self.calls.append(side)
        call = self.calls.count(side)
        code = self.exit_codes.get((side, call), 0)
        if code == 0:
            runs = {name: self.results(side, call, name) for name in WORKLOADS}
            with open(out, "w") as handle:
                json.dump(
                    {"workloads": {k: v for k, v in runs.items() if v is not None}},
                    handle,
                )
        return code


def run_gate(runner, tmp_path, capsys, rules=perf_gate.ROOT):
    code = perf_gate.gate(runner, str(tmp_path), rules)
    return code, capsys.readouterr().out


def test_a_against_a_passes(tmp_path, capsys):
    runner = FakeRunner()
    code, out = run_gate(runner, tmp_path, capsys)
    assert code == 0, out
    assert runner.calls == [
        side
        for pair in range(perf_gate.PAIRS)
        for side in (("base", "new") if pair % 2 == 0 else ("new", "base"))
    ]
    assert "perf gate: pass" in out
    assert (tmp_path / "compare.txt").read_text() in out


def test_a_slower_wall_time_with_tight_spreads_fails(tmp_path, capsys):
    def results(side, call, workload):
        slower = side == "new" and workload == "typestate-x2"
        return result(call, {"wall_s": 1.4} if slower else None)

    code, out = run_gate(FakeRunner(results), tmp_path, capsys)
    assert code == 1
    assert "perf gate: FAIL: typestate-x2 wall_s is worse" in out
    assert out.count("is worse") == 1


def test_an_unresolved_row_passes(tmp_path, capsys):
    def results(side, call, workload):
        # Both sides swing by 60% from run to run: wider than the bound.
        wide = workload == "eval-jobs2" and call % 2 == 0
        return result(call, {"wall_s": 1.6} if wide else None)

    code, out = run_gate(FakeRunner(results), tmp_path, capsys)
    assert code == 0, out
    rows = [line.split() for line in out.splitlines() if line.endswith("unresolved")]
    assert [row[:2] for row in rows] == [["eval-jobs2", "wall_s"]]
    assert "perf gate: pass" in out


@pytest.mark.parametrize(
    "broken, reason",
    [
        (dict(failed=2), "is not correct"),
        # A run that attempted nothing fails no op, but is not correct.
        (dict(attempted=0), "is not correct"),
        (None, "did not run it"),
    ],
)
def test_a_new_run_that_is_not_correct_fails(tmp_path, capsys, broken, reason):
    def results(side, call, workload):
        if side == "new" and call == 3 and workload == "serve-stream":
            return None if broken is None else result(call, **broken)
        return result(call)

    code, out = run_gate(FakeRunner(results), tmp_path, capsys)
    assert code == 1
    assert f"perf gate: FAIL: serve-stream: new run 3 {reason}" in out
    assert out.count("perf gate: FAIL") == 1


def test_the_base_tree_sets_the_bounds(tmp_path, capsys):
    """A change is judged by the bounds of the revision it is merged
    against, not by bounds it sets itself."""
    rules = tmp_path / "base"
    (rules / "benchmarks" / "perf").mkdir(parents=True)
    shutil.copy(
        os.path.join(perf_gate.ROOT, "benchmarks", "perf", "compare.py"),
        rules / "benchmarks" / "perf",
    )
    tight = dict(SPEC, end_to_end=[
        dict(entry, bound=0.1) if entry["name"] == "wall_s" else entry
        for entry in SPEC["end_to_end"]
    ])
    (rules / "BENCHMARK.json").write_text(json.dumps(tight))
    out = tmp_path / "out"
    out.mkdir()

    def results(side, call, workload):
        slower = side == "new" and workload == "eval-full"
        return result(call, {"wall_s": 1.2} if slower else None)

    code, text = run_gate(FakeRunner(results), out, capsys)
    assert code == 0, text
    code, text = run_gate(FakeRunner(results), out, capsys, rules=str(rules))
    assert code == 1
    assert "perf gate: FAIL: eval-full wall_s is worse" in text


def test_a_failed_run_names_its_side(tmp_path, capsys):
    runner = FakeRunner(exit_codes={("new", 1): 2})
    code, out = run_gate(runner, tmp_path, capsys)
    assert code == 1
    assert "perf gate: FAIL: the new side's run.py exited with 2" in out
    assert runner.calls == ["base", "new"]
