"""Tests for the synthetic benchmark generator.

Run as a script (``PYTHONPATH=src python tests/bench/test_generators.py``),
this file prints the current program digests in the form of
``PROGRAM_DIGESTS``."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.bench.generators import BenchmarkProfile, synthesize
from repro.bench.harness import prepare_uncached
from repro.bench.suite import BENCHMARK_NAMES, benchmark_scaled
from repro.frontend import build_callgraph, inline_program
from repro.frontend.program import (
    SCall,
    SLoadField,
    SNew,
    SStoreGlobal,
    SThreadStart,
    walk_statements,
)
from repro.serve.store import canonical_program_text

PROFILE = BenchmarkProfile(name="toy", seed=42, app_classes=3, lib_classes=1)

#: sha256 of ``serve.store.canonical_program_text`` over the inlined
#: program of every suite benchmark, and of the four programs the
#: typestate-x2 benchmark workload synthesizes at twice their size
#: (``<name>-x2``).  Every result the reproduction reports is computed on
#: these programs, so the generator must rebuild them byte for byte under
#: any hash seed.  Regenerating them is an explicit step: run this file
#: and paste its output here, with a note in EXPERIMENTS.md saying why
#: the programs changed.
PROGRAM_DIGESTS = {
    "tsp": "b75773a9c44c37880f22484d945e1917d18f6c99ef8603aab178dc2a9b368dc7",
    "elevator": "b8c42694ba19c882645c588e4681eece4e008828b29422f5ee8a29f540f5092a",
    "hedc": "45dc8dc45bc8ece03a02d1cad5a7ed94e65d7ef44db7c53dbca3bccd4965acb9",
    "weblech": "f8e06be325928a06094a388656fa72d37121b5d1e1f628eb2fb6d22c8038cf97",
    "antlr": "32942639cb66f0a69dd435b35908aa0df71e8298e2414c180e717de71756ce28",
    "avrora": "afc3f059407b91305f759ffb98dd619e657743e0295e4e8c74c62097b4473fa2",
    "lusearch": "931c850e418ef7df30bd38a336d7cb93a78f5dec3ae0c1b7f784ab2c1362aa2d",
    "tsp-x2": "61c9d90f35d2da97dabc20fa705baadcd0fe6589c0485543633c55a780f3956f",
    "elevator-x2": "4874eb5e23eb20e9b1b38d8203dc077f5327c03bebac9fe2b3cb2f0ed5b5fc9b",
    "hedc-x2": "aacf8cb5ceb8335b03e13c987d8c0c3d94650859ae4b91192794b62fcc326a99",
    "weblech-x2": "49fc5badedad623a370d44a10226136a94c375fc16805e41170d587ebd1d7a75",
}


class TestDeterminism:
    def test_same_seed_same_program(self):
        a = synthesize(PROFILE)
        b = synthesize(PROFILE)
        assert sorted(a.classes) == sorted(b.classes)
        assert a.site_class == b.site_class
        a_inline = inline_program(a)
        b_inline = inline_program(b)
        assert a_inline.command_count == b_inline.command_count
        assert a_inline.variables == b_inline.variables

    def test_different_seed_different_program(self):
        a = synthesize(PROFILE)
        b = synthesize(dataclasses.replace(PROFILE, seed=43))
        a_cmds = inline_program(a).command_count
        b_cmds = inline_program(b).command_count
        assert a.site_class != b.site_class or a_cmds != b_cmds


class TestWellFormedness:
    def test_finalizes_without_error(self):
        program = synthesize(PROFILE)
        assert program.finalized

    def test_callgraph_is_acyclic_for_inliner(self):
        program = synthesize(PROFILE)
        result = inline_program(program)
        assert result.recursion_cuts == 0  # layered levels forbid cycles

    def test_entry_exists(self):
        program = synthesize(PROFILE)
        assert program.entry() is not None

    def test_workers_have_run_methods(self):
        profile = dataclasses.replace(PROFILE, worker_classes=2)
        program = synthesize(profile)
        for name in ("Worker0", "Worker1"):
            assert "run" in program.classes[name].methods

    def test_thread_starts_emitted(self):
        profile = dataclasses.replace(PROFILE, worker_classes=1)
        program = synthesize(profile)
        main = program.entry()
        assert any(
            isinstance(s, SThreadStart) for s in walk_statements(main.body)
        )


class TestPatternMix:
    def _all_stmts(self, program):
        return [
            stmt
            for _cls, method in program.methods()
            for stmt in walk_statements(method.body)
        ]

    def test_contains_allocations_calls_and_heap_ops(self):
        stmts = self._all_stmts(synthesize(PROFILE))
        kinds = {type(s) for s in stmts}
        assert SNew in kinds
        assert SCall in kinds

    def test_publication_sites_exist(self):
        profile = dataclasses.replace(PROFILE, publish_weight=6)
        stmts = self._all_stmts(synthesize(profile))
        assert any(isinstance(s, SStoreGlobal) for s in stmts)

    def test_queries_generated_on_field_accesses(self):
        program = synthesize(PROFILE)
        result = inline_program(program)
        accesses = [
            s
            for _cls, m in program.methods()
            for s in walk_statements(m.body)
            if isinstance(s, SLoadField)
        ]
        if accesses:
            assert result.access_points

    def test_reachability_from_main(self):
        program = synthesize(PROFILE)
        cg = build_callgraph(program)
        # main plus at least one callee should be reachable.
        assert len(cg.reachable) >= 2


def program_digests():
    """``PROGRAM_DIGESTS`` as this tree computes them."""
    fronts = {name: None for name in BENCHMARK_NAMES}
    for name in ("tsp", "elevator", "hedc", "weblech"):
        fronts[f"{name}-x2"] = benchmark_scaled(name, 2.0)
    return {
        name: hashlib.sha256(
            canonical_program_text(
                prepare_uncached(name, front).inlined.program
            ).encode("utf-8")
        ).hexdigest()
        for name, front in fronts.items()
    }


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_generated_programs_match_their_pinned_digests(hash_seed):
    """Each digest, computed in a fresh process at the hash seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        capture_output=True,
        env=env,
        check=True,
        timeout=120,
    )
    assert json.loads(done.stdout) == PROGRAM_DIGESTS


if __name__ == "__main__":
    print(json.dumps(program_digests(), indent=4))
