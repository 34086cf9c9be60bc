"""Columnar-analysis throughput gate and micro-benchmarks.

The vectorized batch analyzer (:mod:`repro.analysis.batch`) must beat
the scalar record-replay analyzer by **>=10x** on the suite's largest
traces, measured end to end: trace decode plus the full analysis
(reference profile, both block-size prediction passes, caches, TLB).
The scalar analyzer's rate is recorded in
``benchmarks/analysis_baseline.json``; like ``sim_baseline.json`` the
file carries a host fingerprint, and on a different interpreter or
machine the gate re-measures the scalar oracle (``replay_analysis``
from ``tests/oracles.py``) and re-records instead of comparing apples
to oranges. Delete the file to force re-recording.

The ``pytest-benchmark`` micro-benchmarks at the bottom report absolute
rates for both analyzers plus the standalone decode and analytical-model
sweep costs.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from conftest import load_host_baseline, record_host_baseline
from repro.analysis.batch import analyze_trace_columns
from repro.analysis.prediction import analyze_trace
from repro.cache.analytical import AnalyticalCacheModel
from repro.cpu.coltrace import decode_tracefile
from repro.cpu.tracefile import record_trace
from repro.workloads import build_benchmark
from tests.oracles import replay_analysis

BASELINE_PATH = Path(__file__).parent / "analysis_baseline.json"
BASELINE_SCHEMA = "repro.analysis-baseline/1"
#: The suite's largest traces (record count) -- the gate workloads.
WORKLOADS = ("compress", "tomcatv")
SPEEDUP_TARGET = 10.0
REPEATS = 3


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """(program, trace path, record count) per gate workload."""
    root = tmp_path_factory.mktemp("columnar-gate")
    out = []
    for name in WORKLOADS:
        program = build_benchmark(name)
        path = str(root / f"{name}.fact.gz")
        records = record_trace(program, path)
        out.append((program, path, records))
    return out


def analysis_rate(traced, engine: str) -> float:
    """Best-of-N analysis throughput (trace records/s), decode/replay
    included. ``engine`` is ``"columnar"`` (the product) or
    ``"records"`` (the scalar oracle)."""
    analyze = analyze_trace if engine == "columnar" else replay_analysis
    best = 0.0
    for __ in range(REPEATS):
        records = 0
        start = time.perf_counter()
        for program, path, count in traced:
            analyze(program, path)
            records += count
        elapsed = time.perf_counter() - start
        best = max(best, records / elapsed)
    return best


def scalar_baseline(traced) -> dict:
    """The scalar analyzer's recorded rate, re-measured off-host."""
    baseline = load_host_baseline(BASELINE_PATH, BASELINE_SCHEMA, WORKLOADS)
    if baseline is None:
        baseline = record_host_baseline(
            BASELINE_PATH, BASELINE_SCHEMA, WORKLOADS,
            {"engine": "records",
             "records_per_second": analysis_rate(traced, "records")})
    return baseline


def test_columnar_speedup_target(traced):
    baseline = scalar_baseline(traced)
    reference = baseline["records_per_second"]
    rate = analysis_rate(traced, "columnar")
    speedup = rate / reference
    assert speedup >= SPEEDUP_TARGET, (
        f"columnar analysis runs at {rate:.0f} records/s vs the scalar "
        f"baseline {reference:.0f} records/s ({speedup:.2f}x < "
        f"{SPEEDUP_TARGET}x target)")


# ------------------------------------------------------------------ #
# pytest-benchmark micro-benchmarks (absolute rates)

def test_columnar_analysis_throughput(benchmark, traced):
    program, path, count = traced[0]

    def run():
        return analyze_trace(program, path).instructions

    assert benchmark(run) == count


def test_scalar_analysis_throughput(benchmark, traced):
    program, path, count = traced[0]

    def run():
        return replay_analysis(program, path).instructions

    assert benchmark(run) == count


def test_trace_decode_throughput(benchmark, traced):
    program, path, count = traced[0]

    def run():
        return decode_tracefile(program, path).count

    assert benchmark(run) == count


def test_batch_analyzer_throughput(benchmark, traced):
    """The analyzer alone, decode amortized out (the farm path: columns
    come from the coltrace artifact)."""
    program, path, count = traced[0]
    cols = decode_tracefile(program, path)

    def run():
        return analyze_trace_columns(program, cols).instructions

    assert benchmark(run) == count


def test_analytical_sweep_throughput(benchmark, traced):
    program, path, _ = traced[0]
    cols = decode_tracefile(program, path)
    eas = cols.ea[cols.is_mem]

    def run():
        # cold model each round: profile passes dominate, as in a sweep
        return AnalyticalCacheModel(eas).sweep()

    sweep = benchmark(run)
    assert len(sweep) == 5
