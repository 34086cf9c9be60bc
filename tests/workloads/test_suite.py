"""Benchmark-suite tests: every kernel compiles, runs, and is
deterministic under both compiler configurations."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cpu import CPU
from repro.workloads import BENCHMARKS, FP_BENCHMARKS, INT_BENCHMARKS, build_benchmark, load_source


def test_registry_complete():
    assert len(BENCHMARKS) == 19
    assert len(INT_BENCHMARKS) == 10
    assert len(FP_BENCHMARKS) == 9


def test_names_match_paper_table2():
    expected = {
        "compress", "eqntott", "espresso", "gcc", "sc", "xlisp",
        "elvis", "grep", "perl", "yacr2",
        "alvinn", "doduc", "ear", "mdljdp2", "mdljsp2", "ora",
        "spice", "su2cor", "tomcatv",
    }
    assert set(BENCHMARKS) == expected


def test_farm_parent_imports_no_compiler():
    # a sweep parent plans jobs and forks workers; the compiler (and the
    # static analyzer, which no sweep cell runs) load on first use
    root = Path(__file__).resolve().parents[2]
    code = (
        "import sys\n"
        "import repro.experiments.common, repro.farm.api, repro.farm.jobs\n"
        "import repro.workloads.suite as suite\n"
        "print('repro.compiler.driver' in sys.modules)\n"
        "print('repro.analysis.static_fac' in sys.modules)\n"
        "suite.compile_and_link\n"
        "print('repro.compiler.driver' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert out.stdout.split() == ["False", "False", "True"]


def test_load_source_unknown():
    with pytest.raises(KeyError):
        load_source("nonexistent")


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_runs_correctly_baseline(name):
    program = build_benchmark(name, software_support=False)
    cpu = CPU(program)
    cpu.run(10_000_000)
    assert cpu.halted
    assert cpu.exit_code == 0
    assert cpu.stdout() == BENCHMARKS[name].expected_output


@pytest.mark.parametrize("name", ["compress", "gcc", "xlisp", "alvinn",
                                  "spice", "tomcatv"])
def test_software_support_preserves_output(name):
    program = build_benchmark(name, software_support=True)
    cpu = CPU(program)
    cpu.run(10_000_000)
    assert cpu.stdout() == BENCHMARKS[name].expected_output


def test_builds_are_cached():
    first = build_benchmark("yacr2")
    second = build_benchmark("yacr2")
    assert first is second
