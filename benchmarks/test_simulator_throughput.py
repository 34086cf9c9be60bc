"""Simulator-throughput gate and micro-benchmarks.

The predecoded fast-dispatch engine (:mod:`repro.cpu.predecode`) must
beat the reference ``step()`` interpreter by the targets it shipped
with: **>=2.5x** functional-simulator throughput and **>=1.5x**
end-to-end timing-simulator throughput. The reference interpreter's
rates are recorded in ``benchmarks/sim_baseline.json``; like
``benchmarks/obs_baseline.json`` the file carries a host fingerprint,
and on a different interpreter or machine the gate re-measures the
reference (driven by ``step_records`` from ``tests/oracles.py``) and
re-records instead of comparing apples to oranges. Delete the file to
force re-recording.

The timing measurement runs with ``obs=None`` attached, so the gate
doubles as the "no new per-instruction observability overhead" check
for the streaming path (the feed-loop equivalent lives in
``test_obs_overhead.py``).

The ``pytest-benchmark`` micro-benchmarks at the bottom report absolute
rates for both interpreters and the predictor circuit.
"""

from __future__ import annotations

import time
from pathlib import Path

from conftest import load_host_baseline, record_host_baseline
from repro.cpu import CPU
from repro.fac import FacConfig, FastAddressCalculator
from repro.pipeline import MachineConfig, PipelineSimulator
from repro.workloads import build_benchmark
from tests.oracles import step_records

BASELINE_PATH = Path(__file__).parent / "sim_baseline.json"
BASELINE_SCHEMA = "repro.sim-baseline/1"
WORKLOADS = ("yacr2", "compress")
FUNCTIONAL_TARGET = 2.5
TIMING_TARGET = 1.5
REPEATS = 3


def _programs():
    return [build_benchmark(name) for name in WORKLOADS]


def functional_rate(programs, engine: str) -> float:
    """Best-of-N architectural-simulation throughput (instr/s)."""
    best = 0.0
    for __ in range(REPEATS):
        instructions = 0
        start = time.perf_counter()
        for program in programs:
            cpu = CPU(program)
            if engine == "step":
                for __ in step_records(cpu):
                    pass
            else:
                cpu.run()
            instructions += cpu.instructions_retired
        elapsed = time.perf_counter() - start
        best = max(best, instructions / elapsed)
    return best


def timing_rate(programs, engine: str) -> float:
    """Best-of-N end-to-end timing-simulation throughput (instr/s),
    functional execution included, with a null observer attached."""
    best = 0.0
    for __ in range(REPEATS):
        instructions = 0
        start = time.perf_counter()
        for program in programs:
            cpu = CPU(program)
            pipe = PipelineSimulator(MachineConfig(fac=FacConfig()),
                                     obs=None)
            if engine == "step":
                feed = pipe.feed
                for rec in step_records(cpu):
                    feed(rec)
            else:
                cpu.run_trace(pipe)
            instructions += pipe.finalize().instructions
        elapsed = time.perf_counter() - start
        best = max(best, instructions / elapsed)
    return best


def step_baseline(programs) -> dict:
    """The reference interpreter's recorded rates, re-measured off-host."""
    baseline = load_host_baseline(BASELINE_PATH, BASELINE_SCHEMA, WORKLOADS)
    if baseline is None:
        baseline = record_host_baseline(
            BASELINE_PATH, BASELINE_SCHEMA, WORKLOADS,
            {"engine": "step",
             "functional_instructions_per_second":
                 functional_rate(programs, "step"),
             "timing_instructions_per_second": timing_rate(programs, "step")})
    return baseline


def test_functional_speedup_target():
    programs = _programs()
    baseline = step_baseline(programs)
    reference = baseline["functional_instructions_per_second"]
    rate = functional_rate(programs, "predecoded")
    speedup = rate / reference
    assert speedup >= FUNCTIONAL_TARGET, (
        f"predecoded functional simulator runs at {rate:.0f} instr/s vs "
        f"the step() baseline {reference:.0f} instr/s ({speedup:.2f}x < "
        f"{FUNCTIONAL_TARGET}x target)")


def test_timing_speedup_target():
    programs = _programs()
    baseline = step_baseline(programs)
    reference = baseline["timing_instructions_per_second"]
    rate = timing_rate(programs, "predecoded")
    speedup = rate / reference
    assert speedup >= TIMING_TARGET, (
        f"predecoded timing simulator runs at {rate:.0f} instr/s vs "
        f"the step() baseline {reference:.0f} instr/s ({speedup:.2f}x < "
        f"{TIMING_TARGET}x target)")


# ------------------------------------------------------------------ #
# pytest-benchmark micro-benchmarks (absolute rates, both interpreters)

def test_functional_simulator_throughput(benchmark):
    program = build_benchmark("yacr2")

    def run():
        cpu = CPU(program)
        cpu.run(10_000_000)
        return cpu.instructions_retired

    retired = benchmark(run)
    assert retired > 10_000


def test_functional_simulator_throughput_legacy(benchmark):
    program = build_benchmark("yacr2")

    def run():
        cpu = CPU(program)
        for __ in step_records(cpu, 10_000_000):
            pass
        return cpu.instructions_retired

    retired = benchmark(run)
    assert retired > 10_000


def test_timing_simulator_throughput(benchmark):
    program = build_benchmark("yacr2")

    def run():
        cpu = CPU(program)
        pipe = PipelineSimulator(MachineConfig(fac=FacConfig()))
        cpu.run_trace(pipe)
        return pipe.finalize().instructions

    instructions = benchmark(run)
    assert instructions > 10_000


def test_timing_simulator_throughput_legacy(benchmark):
    program = build_benchmark("yacr2")

    def run():
        cpu = CPU(program)
        pipe = PipelineSimulator(MachineConfig(fac=FacConfig()))
        for rec in step_records(cpu):
            pipe.feed(rec)
        return pipe.finalize().instructions

    instructions = benchmark(run)
    assert instructions > 10_000


def test_predictor_throughput(benchmark):
    fac = FastAddressCalculator(FacConfig())
    cases = [(0x10000000 + i * 52, (i * 37) % 4096 - 64, i % 3 == 0)
             for i in range(1000)]

    def run():
        hits = 0
        for base, offset, is_reg in cases:
            hits += fac.predict(base, offset, is_reg).success
        return hits

    hits = benchmark(run)
    assert 0 < hits <= 1000
