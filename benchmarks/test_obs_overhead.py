"""Observability overhead gates.

Two kinds of contract are enforced here:

**Against a recorded baseline** (absolute, machine-specific): an
*unattached* observer (``obs=None``) costs nearly nothing, so both the
step-loop simulator and the predecoded ``run_trace`` engine must stay
within 5% of the throughput recorded before/after instrumentation
landed (``benchmarks/obs_baseline.json``). The baseline carries a host
fingerprint; on a different interpreter or machine the gate re-records
instead of failing. Delete the file to force re-recording.

**Relative, in-process** (portable): the flight recorder taps the
pipeline's ring hook and its contract is <= 10% overhead over the
detached predecode engine. A fully attached ``EventBus`` drops the
pipeline onto the record-building slow path, so it only has to stay
within a generous 2x bound. Both comparisons run the variants
adjacently within each repeat and gate on the *minimum* overhead ratio
across repeats: machine-load drift inflates or deflates any single
repeat by far more than the effect under test, but a genuine
regression is present in every repeat, including the calm ones.
"""

from __future__ import annotations

import time
from pathlib import Path

from conftest import load_host_baseline, record_host_baseline
from repro.cpu import CPU
from repro.fac import FacConfig
from repro.obs.events import EventBus
from repro.obs.flight import FlightRecorder
from repro.obs.sinks import NullSink
from repro.pipeline import MachineConfig, PipelineSimulator
from repro.workloads import build_benchmark
from tests.oracles import step_records

BASELINE_PATH = Path(__file__).parent / "obs_baseline.json"
BASELINE_SCHEMA = "repro.obs-baseline/2"
WORKLOADS = ("compress", "xlisp", "tomcatv")
MAX_REGRESSION = 0.05          # vs recorded baseline, per engine
MAX_FLIGHT_OVERHEAD = 0.10     # flight recorder vs detached predecode
MAX_BUS_OVERHEAD = 1.00        # attached EventBus+NullSink vs detached
REPEATS = 3
RELATIVE_REPEATS = 5


def _programs():
    return [build_benchmark(name) for name in WORKLOADS]


def _config() -> MachineConfig:
    return MachineConfig(fac=FacConfig())


# ------------------------------------------------------------------ #
# single-run variants; each returns (instructions, elapsed_seconds)

def _run_step_loop(program):
    cpu = CPU(program)
    pipe = PipelineSimulator(_config(), obs=None)
    feed = pipe.feed
    start = time.perf_counter()
    for rec in step_records(cpu):
        feed(rec)
    elapsed = time.perf_counter() - start
    return pipe.result.instructions, elapsed


def _run_predecode(program):
    cpu = CPU(program)
    pipe = PipelineSimulator(_config(), obs=None)
    start = time.perf_counter()
    cpu.run_trace(pipe, 50_000_000)
    elapsed = time.perf_counter() - start
    return pipe.result.instructions, elapsed


def _run_flight(program):
    cpu = CPU(program)
    pipe = PipelineSimulator(_config(), obs=None)
    recorder = FlightRecorder(pipe, window_cycles=256)
    start = time.perf_counter()
    cpu.run_trace(recorder, 50_000_000)
    elapsed = time.perf_counter() - start
    return pipe.result.instructions, elapsed


def _run_attached_bus(program):
    cpu = CPU(program)
    pipe = PipelineSimulator(_config(), obs=EventBus([NullSink()]))
    start = time.perf_counter()
    cpu.run_trace(pipe, 50_000_000)
    elapsed = time.perf_counter() - start
    return pipe.result.instructions, elapsed


def _best_rate(runner, programs, repeats=REPEATS) -> float:
    best = 0.0
    for _ in range(repeats):
        instructions = 0
        elapsed = 0.0
        for program in programs:
            count, seconds = runner(program)
            instructions += count
            elapsed += seconds
        best = max(best, instructions / elapsed)
    return best


def _min_overhead(baseline_runner, candidate_runner, programs,
                  repeats=RELATIVE_REPEATS) -> float:
    """Minimum observed overhead of candidate over baseline across N
    adjacent repeats. Load drift swings any single repeat both ways by
    more than the effect under test; a real regression survives the
    min because it is present in every repeat."""
    overheads = []
    for _ in range(repeats):
        rates = []
        for runner in (baseline_runner, candidate_runner):
            instructions = 0
            elapsed = 0.0
            for program in programs:
                count, seconds = runner(program)
                instructions += count
                elapsed += seconds
            rates.append(instructions / elapsed)
        overheads.append(rates[0] / rates[1] - 1.0)
    return min(overheads)


# ------------------------------------------------------------------ #
# baseline bookkeeping

def _gate_or_record(key: str, rate: float) -> None:
    """Compare ``rate`` against the recorded ``key``; (re-)record when
    the baseline is invalid for this host or lacks the key."""
    baseline = load_host_baseline(BASELINE_PATH, BASELINE_SCHEMA, WORKLOADS)
    rates = baseline["rates"] if baseline is not None else {}
    reference = rates.get(key)
    if reference is None:
        record_host_baseline(BASELINE_PATH, BASELINE_SCHEMA, WORKLOADS,
                             {"rates": {**rates, key: rate}})
        return
    slowdown = 1.0 - rate / reference
    assert slowdown <= MAX_REGRESSION, (
        f"{key} engine with obs=None runs at {rate:.0f} instr/s vs "
        f"recorded baseline {reference:.0f} instr/s "
        f"({100 * slowdown:.1f}% regression > {100 * MAX_REGRESSION:.0f}% "
        f"budget)")


# ------------------------------------------------------------------ #
# gates

def test_null_observer_overhead_within_budget():
    _gate_or_record("step_loop", _best_rate(_run_step_loop, _programs()))


def test_predecode_detached_within_budget():
    _gate_or_record("predecode", _best_rate(_run_predecode, _programs()))


def test_flight_recorder_overhead_within_budget():
    overhead = _min_overhead(_run_predecode, _run_flight, _programs())
    assert overhead <= MAX_FLIGHT_OVERHEAD, (
        f"flight recorder costs {100 * overhead:.1f}% over the detached "
        f"predecode engine in every one of {RELATIVE_REPEATS} repeats "
        f"(> {100 * MAX_FLIGHT_OVERHEAD:.0f}% budget)")


def test_attached_null_bus_overhead_bounded():
    overhead = _min_overhead(_run_predecode, _run_attached_bus,
                             _programs(), repeats=REPEATS)
    assert overhead <= MAX_BUS_OVERHEAD, (
        f"attached EventBus+NullSink costs {100 * overhead:.1f}% over "
        f"the detached predecode engine in every one of {REPEATS} "
        f"repeats (> {100 * MAX_BUS_OVERHEAD:.0f}% budget)")
