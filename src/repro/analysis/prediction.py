"""Trace-level prediction-failure accounting (Tables 3 and 4).

One functional pass per program collects, simultaneously:

* Table 1 reference behaviour (a :class:`ReferenceProfile`),
* prediction failure rates for loads and stores at 16- and 32-byte block
  sizes ("the prediction circuitry performs 4 or 5 bits of full addition
  in the block offset portion"),
* the same rates excluding register+register-mode accesses (Table 4's
  "No R+R" columns),
* I- and D-cache miss ratios and TLB behaviour for the Table 3/4 columns.

The pass records the execution as a trace, decodes it into columns
(:mod:`repro.cpu.coltrace`), and runs the vectorized analyzer
(:mod:`repro.analysis.batch`). This is much faster than the full timing
model and is exactly what the paper's Tables 3 and 4 report (the
timing-dependent columns -- cycles -- come from :mod:`repro.pipeline`).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

from repro.analysis.refclass import ReferenceProfile
from repro.cpu.executor import CPU
from repro.isa.program import Program


@dataclass
class PredictionStats:
    """Failure counts for one predictor geometry."""

    block_size: int = 32
    loads: int = 0
    stores: int = 0
    load_failures: int = 0
    store_failures: int = 0
    # excluding register+register mode accesses
    norr_loads: int = 0
    norr_stores: int = 0
    norr_load_failures: int = 0
    norr_store_failures: int = 0
    # which verification signal fired (a failure can raise several)
    signal_counts: dict = field(default_factory=lambda: {
        "overflow": 0, "gen_carry": 0, "large_neg_const": 0,
        "neg_index_reg": 0, "tag_mismatch": 0,
    })

    @property
    def load_failure_rate(self) -> float:
        return self.load_failures / self.loads if self.loads else 0.0

    @property
    def store_failure_rate(self) -> float:
        return self.store_failures / self.stores if self.stores else 0.0

    @property
    def norr_load_failure_rate(self) -> float:
        return self.norr_load_failures / self.norr_loads if self.norr_loads else 0.0

    @property
    def norr_store_failure_rate(self) -> float:
        return self.norr_store_failures / self.norr_stores if self.norr_stores else 0.0

    @property
    def overall_failure_rate(self) -> float:
        total = self.loads + self.stores
        failed = self.load_failures + self.store_failures
        return failed / total if total else 0.0


@dataclass
class TraceAnalysis:
    """Everything one functional pass produces."""

    profile: ReferenceProfile
    predictions: dict[int, PredictionStats]  # keyed by block size
    icache_miss_ratio: float = 0.0
    dcache_miss_ratio: float = 0.0
    tlb_miss_ratio: float = 0.0
    memory_usage: int = 0
    instructions: int = 0
    stdout: str = ""
    # {block_size: {pc: [accesses, failures]}} when per-PC tracking is on
    per_pc: dict[int, dict[int, list[int]]] | None = None


def _capture_columns(program: Program, max_instructions: int):
    """Run ``program`` once, recording its trace, and decode the trace
    into columns; returns ``(cpu, columns)``. The finished CPU supplies
    what a trace does not carry (memory usage, stdout)."""
    from repro.cpu.coltrace import decode_tracefile
    from repro.cpu.tracefile import record_trace

    handle, path = tempfile.mkstemp(suffix=".fact.gz", prefix="repro-")
    os.close(handle)
    try:
        cpu = CPU(program)
        record_trace(program, path, max_instructions, cpu=cpu)
        cols = decode_tracefile(program, path)
    finally:
        os.unlink(path)
    return cpu, cols


def analyze_program(program: Program, block_sizes: tuple[int, ...] = (16, 32),
                    max_instructions: int = 50_000_000,
                    per_pc: bool = False) -> TraceAnalysis:
    """Run ``program`` functionally and collect the full analysis.

    ``per_pc`` adds ``{block_size: {pc: [accesses, failures]}}`` tables,
    used by the static-analysis soundness checks
    (:mod:`repro.analysis.static_fac`). Memory use grows with the trace
    length: the whole execution is decoded into columns first.
    """
    from repro.analysis.batch import analyze_trace_columns

    cpu, cols = _capture_columns(program, max_instructions)
    return analyze_trace_columns(
        program, cols, block_sizes=block_sizes, per_pc=per_pc,
        memory_usage=cpu.memory_usage, stdout=cpu.stdout())


def analyze_trace(program: Program, trace_path: str,
                  block_sizes: tuple[int, ...] = (16, 32),
                  per_pc: bool = False, memory_usage: int = 0,
                  stdout: str = "") -> TraceAnalysis:
    """Collect the full analysis from a recorded trace
    (:mod:`repro.cpu.tracefile`) instead of a live execution.

    One functional capture drives any number of analyzer geometries
    without re-interpreting the program; ``memory_usage`` and ``stdout``
    come from the trace artifact's metadata when available. The trace
    is decoded into column arrays and analyzed by the vectorized batch
    analyzer (:mod:`repro.analysis.batch`)."""
    from repro.analysis.batch import analyze_trace_columns
    from repro.cpu.coltrace import decode_tracefile

    cols = decode_tracefile(program, trace_path)
    return analyze_trace_columns(
        program, cols, block_sizes=block_sizes, per_pc=per_pc,
        memory_usage=memory_usage, stdout=stdout)
