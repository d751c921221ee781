"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import EXIT_EXHAUSTED, EXIT_IMPOSSIBLE, main

FILE_PROGRAM = """
x = new File
y = x
x.open()
y.close()
observe check1
observe check2
"""

ESCAPE_PROGRAM = """
u = new h1
v = new h2
v.f = u
observe pc
"""


@pytest.fixture
def file_prog(tmp_path):
    path = tmp_path / "prog.rp"
    path.write_text(FILE_PROGRAM)
    return str(path)


@pytest.fixture
def escape_prog(tmp_path):
    path = tmp_path / "esc.rp"
    path.write_text(ESCAPE_PROGRAM)
    return str(path)


class TestSolveTypestate:
    def test_proven_query(self, file_prog, capsys):
        code = main(
            ["solve-typestate", file_prog, "--query", "check1", "--k", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PROVEN" in out
        assert "{x, y}" in out

    def test_impossible_query(self, file_prog, capsys):
        code = main(
            [
                "solve-typestate",
                file_prog,
                "--query",
                "check2",
                "--allowed",
                "opened",
            ]
        )
        assert code == EXIT_IMPOSSIBLE
        assert "IMPOSSIBLE" in capsys.readouterr().out

    def test_narrate_transcript(self, file_prog, capsys):
        main(
            [
                "solve-typestate",
                file_prog,
                "--query",
                "check1",
                "--k",
                "1",
                "--narrate",
            ]
        )
        out = capsys.readouterr().out
        assert "iteration 1: p = {}" in out
        assert "x = new File" in out

    def test_beam_none_accepted(self, file_prog, capsys):
        code = main(
            ["solve-typestate", file_prog, "--query", "check1", "--k", "none"]
        )
        assert code == 0

    def test_unknown_label_rejected(self, file_prog):
        with pytest.raises(SystemExit):
            main(["solve-typestate", file_prog, "--query", "ghost"])

    def test_unknown_state_rejected(self, file_prog):
        with pytest.raises(SystemExit):
            main(
                [
                    "solve-typestate",
                    file_prog,
                    "--query",
                    "check1",
                    "--allowed",
                    "ajar",
                ]
            )

    def test_stress_automaton(self, file_prog, capsys):
        code = main(
            [
                "solve-typestate",
                file_prog,
                "--query",
                "check1",
                "--automaton",
                "stress",
                "--allowed",
                "init",
            ]
        )
        assert code == 0


class TestSolveEscape:
    def test_proven_query(self, escape_prog, capsys):
        code = main(["solve-escape", escape_prog, "--query", "pc", "--var", "u"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PROVEN" in out
        assert "{h1, h2}" in out

    def test_unknown_variable_rejected(self, escape_prog):
        with pytest.raises(SystemExit):
            main(["solve-escape", escape_prog, "--query", "pc", "--var", "zz"])

    def test_exhausted_returns_nonzero(self, escape_prog, capsys):
        code = main(
            [
                "solve-escape",
                escape_prog,
                "--query",
                "pc",
                "--var",
                "u",
                "--max-iterations",
                "1",
            ]
        )
        assert code == EXIT_EXHAUSTED
        assert "UNRESOLVED" in capsys.readouterr().out


class TestSolveProvenance:
    @pytest.fixture
    def prov_prog(self, tmp_path):
        path = tmp_path / "prov.rp"
        path.write_text(
            "choice {\n  h = new A\n} or {\n  h = new B\n}\nobserve pc\n"
        )
        return str(path)

    def test_proven_with_all_sites(self, prov_prog, capsys):
        code = main(["solve-provenance", prov_prog, "--query", "pc", "--var", "h"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PROVEN" in out and "{A, B}" in out

    def test_impossible_with_restricted_sites(self, prov_prog, capsys):
        code = main(
            [
                "solve-provenance",
                prov_prog,
                "--query",
                "pc",
                "--var",
                "h",
                "--allowed",
                "A",
            ]
        )
        assert code == EXIT_IMPOSSIBLE
        assert "IMPOSSIBLE" in capsys.readouterr().out

    def test_unknown_site_rejected(self, prov_prog):
        with pytest.raises(SystemExit):
            main(
                [
                    "solve-provenance",
                    prov_prog,
                    "--query",
                    "pc",
                    "--var",
                    "h",
                    "--allowed",
                    "Ghost",
                ]
            )


class TestTracing:
    def solve_with_trace(self, file_prog, tmp_path, *extra):
        trace_path = str(tmp_path / "trace.jsonl")
        code = main(
            [
                "solve-typestate",
                file_prog,
                "--query",
                "check1",
                "--k",
                "1",
                "--trace-out",
                trace_path,
                *extra,
            ]
        )
        assert code == 0
        return trace_path

    def test_trace_out_produces_valid_jsonl(self, file_prog, tmp_path, capsys):
        trace_path = self.solve_with_trace(file_prog, tmp_path)
        code = main(["trace", "validate", trace_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK:" in out

    def test_trace_summarize_breakdown(self, file_prog, tmp_path, capsys):
        trace_path = self.solve_with_trace(file_prog, tmp_path)
        code = main(["trace", "summarize", trace_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "Per-phase wall-clock breakdown" in out
        assert "forward" in out and "backward" in out and "synthesis" in out
        assert "phase coverage" in out

    def test_trace_transcript_post_hoc(self, file_prog, tmp_path, capsys):
        trace_path = self.solve_with_trace(file_prog, tmp_path)
        code = main(["trace", "transcript", trace_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "== iteration 1: p = {} ==" in out
        assert "x = new File" in out

    def test_narrate_with_trace_out_matches_transcript(
        self, file_prog, tmp_path, capsys
    ):
        trace_path = self.solve_with_trace(file_prog, tmp_path, "--narrate")
        narrated = capsys.readouterr().out
        main(["trace", "transcript", trace_path])
        replayed = capsys.readouterr().out
        assert "== iteration 1: p = {} ==" in replayed
        # The post-hoc transcript is embedded in the original output.
        assert replayed.strip() in narrated

    def test_progress_writes_to_stderr(self, file_prog, capsys):
        code = main(
            ["solve-typestate", file_prog, "--query", "check1", "--progress"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "iteration 1" in captured.err
        assert "PROVEN" in captured.err

    def test_validate_rejects_corrupt_trace(
        self, file_prog, tmp_path, capsys
    ):
        trace_path = self.solve_with_trace(file_prog, tmp_path)
        with open(trace_path) as handle:
            lines = [
                line
                for line in handle
                if '"type":"span_end"' not in line  # orphan every span
            ]
        with open(trace_path, "w") as handle:
            handle.writelines(lines)
        code = main(["trace", "validate", trace_path])
        captured = capsys.readouterr()
        assert code == 1
        assert "invalid:" in captured.err

    def test_validate_missing_file_dies(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "validate", str(tmp_path / "nope.jsonl")])

    def test_eval_quick_trace(self, tmp_path, capsys):
        trace_path = str(tmp_path / "eval.jsonl")
        code = main(["eval", "--quick", "--trace-out", trace_path])
        assert code == 0
        capsys.readouterr()
        assert main(["trace", "validate", trace_path]) == 0

    def test_trace_summarize_merges_multiple_files(
        self, file_prog, tmp_path, capsys
    ):
        first = self.solve_with_trace(file_prog, tmp_path)
        second = str(tmp_path / "second.jsonl")
        import shutil

        shutil.copy(first, second)
        capsys.readouterr()
        code = main(["trace", "summarize", first, second])
        out = capsys.readouterr().out
        assert code == 0
        assert "Per-phase wall-clock breakdown" in out
        assert "(streams: 2)" in out
        # Two merged copies report twice the iterations of one file.
        main(["trace", "summarize", first])
        single = capsys.readouterr().out

        def iteration_count(text):
            for line in text.splitlines():
                if line.startswith("iterations:"):
                    return int(line.split()[1])
            raise AssertionError(f"no iteration count in {text!r}")

        assert iteration_count(out) == 2 * iteration_count(single)

    def test_trace_profile_reports_sites(self, file_prog, tmp_path, capsys):
        trace_path = self.solve_with_trace(file_prog, tmp_path)
        capsys.readouterr()
        code = main(["trace", "profile", trace_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "site" in out and "self %" in out
        assert "forward_run" in out
        assert "all sites" in out

    def test_trace_profile_top_and_by_trace(
        self, file_prog, tmp_path, capsys
    ):
        trace_path = self.solve_with_trace(file_prog, tmp_path)
        capsys.readouterr()
        code = main(
            ["trace", "profile", trace_path, "--top", "1", "--by-trace"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "more site(s); use --top" in out
        # A solo solve sets no trace ids; the report says so.
        assert "no trace ids" in out

    def test_trace_profile_by_trace_on_parallel_eval(self, tmp_path, capsys):
        trace_path = str(tmp_path / "eval.jsonl")
        assert main(
            ["eval", "--quick", "--jobs", "2", "--trace-out", trace_path]
        ) == 0
        capsys.readouterr()
        code = main(["trace", "profile", trace_path, "--by-trace"])
        out = capsys.readouterr().out
        assert code == 0
        # Each parallel work unit rolled up under its own trace id.
        assert "unit:" in out


class TestInfo:
    def test_benchmark_info(self, capsys):
        code = main(["info", "tsp"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tsp" in out
        assert "queries:" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestRobustFlags:
    def test_max_steps_exhausts(self, file_prog, capsys):
        code = main(
            [
                "solve-typestate",
                file_prog,
                "--query",
                "check1",
                "--max-steps",
                "3",
            ]
        )
        assert code == EXIT_EXHAUSTED
        assert "UNRESOLVED" in capsys.readouterr().out

    def test_inject_is_fatal_under_strict_default(self, file_prog):
        with pytest.raises(RuntimeError):
            main(
                [
                    "solve-typestate",
                    file_prog,
                    "--query",
                    "check1",
                    "--inject",
                    "choose:raise",
                ]
            )

    def test_inject_contained_under_lenient(self, file_prog, capsys):
        code = main(
            [
                "solve-typestate",
                file_prog,
                "--query",
                "check1",
                "--inject",
                "choose:raise:times=none",
                "--lenient",
            ]
        )
        assert code == EXIT_EXHAUSTED
        assert "UNRESOLVED" in capsys.readouterr().out

    def test_bad_inject_spec_dies(self, file_prog):
        with pytest.raises(SystemExit):
            main(
                [
                    "solve-typestate",
                    file_prog,
                    "--query",
                    "check1",
                    "--inject",
                    "nonsense",
                ]
            )

    def test_eval_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            main(["eval", "--quick", "--resume"])

    def test_journal_and_resume_journal_conflict(self, file_prog, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "solve-typestate",
                    file_prog,
                    "--query",
                    "check1",
                    "--journal",
                    str(tmp_path / "a.jsonl"),
                    "--resume-journal",
                    str(tmp_path / "b.jsonl"),
                ]
            )

    def test_narrate_rejects_journal(self, file_prog, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "solve-typestate",
                    file_prog,
                    "--query",
                    "check1",
                    "--narrate",
                    "--journal",
                    str(tmp_path / "j.jsonl"),
                ]
            )

    def test_eval_quick_with_checkpoint(self, tmp_path, capsys):
        path = str(tmp_path / "run.leases")
        code = main(
            ["eval", "--quick", "--jobs", "2", "--checkpoint", path]
        )
        assert code == 0
        from repro.robust.leases import load_lease_records

        assert any(
            record["type"] == "complete" for record in load_lease_records(path)
        )
        capsys.readouterr()
        code = main(
            ["eval", "--quick", "--jobs", "2", "--checkpoint", path, "--resume"]
        )
        assert code == 0

    def test_eval_checkpoint_without_jobs_is_resumable(self, tmp_path, capsys):
        """One worker still keeps the lease log: a resume under a fault
        plan that fails every executed unit then executes nothing."""
        path = str(tmp_path / "run.leases")
        assert main(["eval", "--quick", "--checkpoint", path]) == 0
        from repro.robust.leases import load_lease_records

        completed = [
            record
            for record in load_lease_records(path)
            if record["type"] == "complete"
        ]
        assert len(completed) == 20  # every unit of the quick suite
        capsys.readouterr()
        code = main(
            [
                "eval", "--quick", "--checkpoint", path, "--resume",
                "--retries", "1", "--inject", "unit:raise:times=none",
            ]
        )
        assert code == 0


class TestCertify:
    def solve_certified(self, file_prog, tmp_path, *extra):
        cert_path = str(tmp_path / "certs.jsonl")
        main(
            [
                "solve-typestate",
                file_prog,
                "--query",
                "check1",
                "--certify-out",
                cert_path,
                *extra,
            ]
        )
        return cert_path

    def test_solver_certificate_checks_out(self, file_prog, tmp_path, capsys):
        cert_path = self.solve_certified(file_prog, tmp_path)
        code = main(["certify", cert_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "1/1 certificates check out" in out

    def test_impossible_certificate_checks_out(
        self, file_prog, tmp_path, capsys
    ):
        cert_path = str(tmp_path / "certs.jsonl")
        code = main(
            [
                "solve-typestate",
                file_prog,
                "--query",
                "check2",
                "--allowed",
                "opened",
                "--certify-out",
                cert_path,
            ]
        )
        assert code == EXIT_IMPOSSIBLE
        capsys.readouterr()
        assert main(["certify", cert_path]) == 0
        assert "impossible" in capsys.readouterr().out

    def test_escape_certificate_checks_out(
        self, escape_prog, tmp_path, capsys
    ):
        cert_path = str(tmp_path / "certs.jsonl")
        main(
            [
                "solve-escape",
                escape_prog,
                "--query",
                "pc",
                "--var",
                "u",
                "--certify-out",
                cert_path,
            ]
        )
        capsys.readouterr()
        assert main(["certify", cert_path]) == 0

    def test_tampered_certificate_rejected(self, file_prog, tmp_path, capsys):
        cert_path = self.solve_certified(file_prog, tmp_path)
        lines = open(cert_path).read().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "certificate":
                record["abstraction"] = []  # claim a cheaper abstraction
            doctored.append(json.dumps(record, sort_keys=True))
        with open(cert_path, "w") as handle:
            handle.write("\n".join(doctored) + "\n")
        code = main(["certify", cert_path])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_corrupt_certificate_file_dies(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "certificate_header", "version": 1}\nnot json\n')
        with pytest.raises(SystemExit):
            main(["certify", str(path)])

    def test_eval_certificates_check_out(self, tmp_path, capsys):
        cert_path = str(tmp_path / "eval-certs.jsonl")
        code = main(["eval", "--quick", "--certify-out", cert_path])
        assert code == 0
        capsys.readouterr()
        code = main(["certify", cert_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "certificates check out" in out
        assert "FAIL" not in out


class TestJournalFlags:
    def test_resume_replays_to_identical_verdict(
        self, file_prog, tmp_path, capsys
    ):
        journal = str(tmp_path / "journal.jsonl")
        first_cert = str(tmp_path / "first.jsonl")
        second_cert = str(tmp_path / "second.jsonl")
        code = main(
            [
                "solve-typestate",
                file_prog,
                "--query",
                "check1",
                "--journal",
                journal,
                "--certify-out",
                first_cert,
            ]
        )
        assert code == 0
        first_out = capsys.readouterr().out
        code = main(
            [
                "solve-typestate",
                file_prog,
                "--query",
                "check1",
                "--resume-journal",
                journal,
                "--certify-out",
                second_cert,
            ]
        )
        assert code == 0
        second_out = capsys.readouterr().out
        assert "PROVEN" in first_out and "PROVEN" in second_out
        assert open(first_cert).read() == open(second_cert).read()


class TestSelfcheck:
    def test_typestate_passes(self, file_prog, capsys):
        code = main(["selfcheck", "typestate", file_prog])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK:" in out

    def test_escape_passes(self, escape_prog, capsys):
        code = main(["selfcheck", "escape", escape_prog])
        assert code == 0

    def test_provenance_passes(self, escape_prog, capsys):
        code = main(["selfcheck", "provenance", escape_prog])
        assert code == 0

    def test_unknown_analysis_rejected(self, file_prog):
        with pytest.raises(SystemExit):
            main(["selfcheck", "nonsense", file_prog])
