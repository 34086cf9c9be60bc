"""Whole-stack oracle equivalence on a suite benchmark and the FAC
failure-signal fixtures.

Every product layer must be bit-for-bit equal to its oracle
(``tests/oracles.py``) everywhere results leave the simulator: trace
bytes, executor state, ``repro.metrics/1`` analysis snapshots, and
timing snapshots on several machines. ``tools/check_sim_equivalence.py``
runs the same check over the whole suite (the CI ``sim-equivalence``
job); this keeps one benchmark's worth in tier-1, one test per part of
``check_program``, plus the four
``tests/obs/fixtures/sig_*.s`` programs, whose negative index registers
and large negative constants the kernels rarely reach.
"""

from pathlib import Path

import pytest

from repro.isa.assembler import assemble
from repro.linker import LinkOptions, link
from repro.workloads import build_benchmark
from tests.oracles import check_analysis, check_program, check_sim, check_trace

BENCH = "compress"
BUDGET = 120_000
FIXTURE_DIR = Path(__file__).parent.parent / "obs" / "fixtures"
FIXTURES = ("sig_overflow", "sig_gen_carry", "sig_large_neg_const",
            "sig_neg_index_reg")


@pytest.fixture(scope="module")
def program():
    return build_benchmark(BENCH, software_support=False)


@pytest.fixture(scope="module")
def traced(program, tmp_path_factory):
    """``check_trace`` on the benchmark: (problems, trace path, cpu)."""
    scratch = tmp_path_factory.mktemp("equivalence")
    return check_trace(program, BUDGET, str(scratch), label=BENCH)


def test_tracefiles_and_state_identical(traced):
    problems, _, _ = traced
    assert problems == []


def test_analysis_snapshots_identical(program, traced):
    _, path, cpu = traced
    assert check_analysis(program, BUDGET, path, cpu) == []


def test_sim_snapshots_identical(program, traced):
    _, path, cpu = traced
    assert check_sim(program, BUDGET, path, cpu) == []


@pytest.mark.parametrize("name", FIXTURES)
def test_signal_fixture_matches_oracles(name, tmp_path):
    source = (FIXTURE_DIR / f"{name}.s").read_text()
    program = link([assemble(source, f"{name}.s")], LinkOptions())
    assert check_program(program, BUDGET, str(tmp_path), label=name) == []
