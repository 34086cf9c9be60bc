"""Timing-replay throughput gate: fused engine vs its oracle.

``simulate_trace`` (the fused single-pass engine of
:mod:`repro.pipeline.replay`) must time recorded traces at least
**2x** as fast as ``replay_simulate`` from ``tests/oracles.py``, which
feeds the same trace record by record into ``PipelineSimulator``, and
its ``SimResult`` snapshots must equal the oracle's. Both rates are
measured in the same run, best of 3, on the perfbench ``sweep-timing``
kernels at full length on the baseline and fac32 machines, so the gate
needs no recorded baseline file. Rates use process CPU time: time lost
to other processes on a shared host counts against neither side.
Sample output::

    fused 1310k instr/s vs oracle 439k instr/s (2.99x) over 12 cells
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cpu import CPU
from repro.cpu.tracefile import record_trace, simulate_trace
from repro.experiments.common import MACHINES, MAX_INSTRUCTIONS
from repro.farm.snapshots import sim_to_snapshot
from repro.workloads import build_benchmark
from tests.oracles import replay_simulate

KERNELS = ("compress", "grep", "xlisp", "alvinn", "spice", "tomcatv")
MACHINE_LABELS = ("base", "fac32")
TARGET = 2.0
REPEATS = 3


@pytest.fixture(scope="module")
def cells(tmp_path_factory):
    """``(program, trace path, memory usage, machine)`` per cell."""
    scratch = tmp_path_factory.mktemp("timing-replay")
    out = []
    for name in KERNELS:
        program = build_benchmark(name, software_support=False)
        path = str(scratch / f"{name}.fact.gz")
        cpu = CPU(program)
        record_trace(program, path, MAX_INSTRUCTIONS, cpu=cpu)
        for label in MACHINE_LABELS:
            out.append((program, path, cpu.memory_usage, MACHINES[label]))
    return out


def _rate(simulate, cells) -> tuple[float, list[str]]:
    """Best-of-N instr/s of ``simulate`` over every cell, and the
    snapshots of the last repeat."""
    best = 0.0
    for __ in range(REPEATS):
        instructions = 0
        results = []
        start = time.process_time()
        for program, path, memory_usage, machine in cells:
            result = simulate(program, path, machine, memory_usage)
            instructions += result.instructions
            results.append(result)
        best = max(best, instructions / (time.process_time() - start))
    return best, [json.dumps(sim_to_snapshot(r, meta={}), sort_keys=True)
                  for r in results]


def test_fused_replay_speedup_target(cells):
    oracle_rate, oracle_snaps = _rate(replay_simulate, cells)
    fused_rate, fused_snaps = _rate(simulate_trace, cells)
    assert fused_snaps == oracle_snaps
    speedup = fused_rate / oracle_rate
    print(f"\nfused {fused_rate / 1e3:.0f}k instr/s vs oracle "
          f"{oracle_rate / 1e3:.0f}k instr/s ({speedup:.2f}x) over "
          f"{len(cells)} cells")
    assert speedup >= TARGET, (
        f"fused replay runs at {fused_rate:.0f} instr/s vs the "
        f"record-by-record oracle {oracle_rate:.0f} instr/s "
        f"({speedup:.2f}x < {TARGET}x target)")
