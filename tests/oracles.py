"""Reference oracles for the simulator's fast paths.

Each product layer has one implementation under ``src/``. The exact,
slower references those implementations must equal live here, used
only by the tests, ``tools/check_sim_equivalence.py`` and the
throughput benchmarks:

* :func:`step_records` drives the reference interpreter ``CPU.step()``
  (the oracle of the predecoded ``CPU.run_trace`` engine);
* :class:`TraceAnalyzer` is the scalar record-at-a-time analysis (the
  oracle of the columnar :func:`repro.analysis.batch.analyze_trace_columns`);
* :func:`record_trace_steps` is the record-at-a-time trace encoder (the
  oracle of the streaming :func:`repro.cpu.tracefile.record_trace`);
* :func:`replay_trace` iterates a trace file as records (the oracle of
  :func:`replay_into` and the columnar decoder);
* :func:`replay_into` streams a trace file into a ``CPU.run_trace``
  consumer, and :func:`replay_simulate` feeds it to the pipeline model
  (the oracle of the fused :func:`repro.cpu.tracefile.simulate_trace`);
* :class:`DistanceTracker` is the scalar load-use distance pass (the
  oracle of :func:`repro.analysis.batch.load_use_distances`);
* :func:`check_program` / :func:`check_benchmark` run the whole-stack
  equivalence check, made of :func:`check_trace` (trace bytes and
  executor state), :func:`check_analysis` (analysis snapshots) and
  :func:`check_sim` (timing snapshots on several machines).
"""

from __future__ import annotations

import gzip
import json
import os
import struct
from typing import Iterator

from repro.analysis.prediction import (
    PredictionStats,
    TraceAnalysis,
    analyze_program,
    analyze_trace,
)
from repro.analysis.refclass import ReferenceProfile
from repro.cache.cache import Cache, CacheConfig
from repro.cache.tlb import TLB
from repro.cpu.executor import CPU, TraceRecord
from repro.cpu.tracefile import (
    _FLAG_FAR_TARGET,
    _FLAG_HAS_EA,
    _FLAG_HAS_TAKEN,
    _FLAG_TAKEN,
    _HEADER,
    _MAGIC,
    _RECORD,
    _U32,
    _VERSION,
    _read,
    program_crc,
    record_trace,
    simulate_trace,
    validate_header,
)
from repro.errors import SimulationError
from repro.fac.config import FacConfig
from repro.fac.predictor import FastAddressCalculator
from repro.farm.snapshots import analysis_to_snapshot, sim_to_snapshot
from repro.isa.opcodes import OP_INFO
from repro.isa.program import Program
from repro.pipeline.config import MachineConfig
from repro.pipeline.deps import sources_and_dests
from repro.pipeline.pipeline import PipelineSimulator, simulate_program
from repro.utils.bits import to_signed32
from repro.workloads.suite import build_benchmark

#: Machines the equivalence check times every program on.
MACHINES = {
    "base": MachineConfig(),
    "fac32": MachineConfig(fac=FacConfig(block_size=32)),
    "fac16norr": MachineConfig(fac=FacConfig(block_size=16,
                                             speculate_reg_reg=False)),
}


# ------------------------------------------------------------------ #
# reference interpreter

def step_records(cpu: CPU, budget: int = 100_000_000) -> Iterator[TraceRecord]:
    """Execute ``cpu`` one ``step()`` at a time until it halts or
    ``budget`` instructions retire, yielding each record. Unlike
    ``CPU.run`` it does not raise when the budget runs out."""
    step = cpu.step
    while not cpu.halted and budget > 0:
        yield step()
        budget -= 1


# ------------------------------------------------------------------ #
# scalar analysis

class TraceAnalyzer:
    """Single-pass, record-at-a-time trace analyzer."""

    def __init__(self, block_sizes: tuple[int, ...] = (16, 32),
                 cache_size: int = 16 * 1024, full_tag_add: bool = True,
                 per_pc: bool = False):
        self.profile = ReferenceProfile()
        # optional {block_size: {pc: [accesses, failures]}} tracking
        self.per_pc: dict[int, dict[int, list[int]]] | None = (
            {bs: {} for bs in block_sizes} if per_pc else None
        )
        self.predictors = {
            bs: FastAddressCalculator(
                FacConfig(cache_size=cache_size, block_size=bs,
                          full_tag_add=full_tag_add)
            )
            for bs in block_sizes
        }
        self.stats = {bs: PredictionStats(block_size=bs) for bs in block_sizes}
        self.icache = Cache(CacheConfig(size=16 * 1024, block_size=32,
                                        name="icache"))
        self.dcache = Cache(CacheConfig(size=16 * 1024, block_size=32,
                                        name="dcache"))
        self.tlb = TLB()
        self._last_iblock = -1

    def observe(self, rec: TraceRecord) -> None:
        self.profile.observe(rec)
        iblock = rec.pc >> 5
        if iblock != self._last_iblock:
            self._last_iblock = iblock
            self.icache.access(rec.pc)
        inst = rec.inst
        info = OP_INFO[inst.op]
        if not info.mem_width:
            return
        self.dcache.access(rec.ea, info.is_store)
        self.tlb.access(rec.ea)
        mode = info.mem_mode
        if mode == "p":
            failed = False  # address needs no addition: always correct
            offset = 0
        else:
            offset = rec.offset_value if mode == "c" \
                else to_signed32(rec.offset_value)
        for block_size, predictor in self.predictors.items():
            stats = self.stats[block_size]
            if mode == "p":
                failed = False
            else:
                # allocation-free verdict first; only failures (rare)
                # materialize the Prediction for its signal breakdown
                failed = predictor.fails(rec.base_value, offset, mode == "x")
                if failed:
                    signals = predictor.predict(
                        rec.base_value, offset, mode == "x"
                    ).signals
                    counts = stats.signal_counts
                    counts["overflow"] += signals.overflow
                    counts["gen_carry"] += signals.gen_carry
                    counts["large_neg_const"] += signals.large_neg_const
                    counts["neg_index_reg"] += signals.neg_index_reg
                    counts["tag_mismatch"] += signals.tag_mismatch
            if self.per_pc is not None:
                entry = self.per_pc[block_size].setdefault(rec.pc, [0, 0])
                entry[0] += 1
                entry[1] += failed
            if info.is_load:
                stats.loads += 1
                stats.load_failures += failed
                if mode != "x":
                    stats.norr_loads += 1
                    stats.norr_load_failures += failed
            else:
                stats.stores += 1
                stats.store_failures += failed
                if mode != "x":
                    stats.norr_stores += 1
                    stats.norr_store_failures += failed

    def result(self, memory_usage: int = 0, instructions: int | None = None,
               stdout: str = "") -> TraceAnalysis:
        """The analysis so far; the functional facts a trace does not
        carry are passed in explicitly. ``instructions`` defaults to the
        observed record count."""
        return TraceAnalysis(
            profile=self.profile,
            predictions=self.stats,
            icache_miss_ratio=self.icache.miss_ratio,
            dcache_miss_ratio=self.dcache.miss_ratio,
            tlb_miss_ratio=self.tlb.miss_ratio,
            memory_usage=memory_usage,
            instructions=(self.profile.instructions
                          if instructions is None else instructions),
            stdout=stdout,
            per_pc=self.per_pc,
        )


def step_analysis(program: Program, block_sizes: tuple[int, ...] = (16, 32),
                  max_instructions: int = 50_000_000, per_pc: bool = False,
                  cache_size: int = 16 * 1024) -> TraceAnalysis:
    """Oracle of :func:`repro.analysis.prediction.analyze_program`: the
    reference interpreter feeding the scalar analyzer."""
    cpu = CPU(program)
    analyzer = TraceAnalyzer(block_sizes, cache_size=cache_size,
                             per_pc=per_pc)
    for rec in step_records(cpu, max_instructions):
        analyzer.observe(rec)
    return analyzer.result(memory_usage=cpu.memory_usage,
                           instructions=cpu.instructions_retired,
                           stdout=cpu.stdout())


def replay_analysis(program: Program, path: str,
                    block_sizes: tuple[int, ...] = (16, 32),
                    per_pc: bool = False, memory_usage: int = 0,
                    stdout: str = "") -> TraceAnalysis:
    """Oracle of :func:`repro.analysis.prediction.analyze_trace`: the
    recorded trace replayed record by record into the scalar analyzer."""
    analyzer = TraceAnalyzer(block_sizes, per_pc=per_pc)
    for rec in replay_trace(program, path):
        analyzer.observe(rec)
    return analyzer.result(memory_usage=memory_usage, stdout=stdout)


# ------------------------------------------------------------------ #
# trace files, one record at a time

def record_trace_steps(program: Program, path: str,
                       max_instructions: int = 50_000_000,
                       cpu: CPU | None = None) -> int:
    """Oracle of :func:`repro.cpu.tracefile.record_trace`: step the
    reference interpreter and encode each record as it retires."""
    if cpu is None:
        cpu = CPU(program)
    text_base = program.text_base
    count = 0
    with open(path, "wb") as raw, \
            gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                          mtime=0) as stream:
        stream.write(_HEADER.pack(_MAGIC, _VERSION, 0, program_crc(program),
                                  0, program.entry))
        for rec in step_records(cpu, max_instructions):
            count += 1
            flags = 0
            ea = 0
            if rec.ea is not None:
                flags |= _FLAG_HAS_EA
                ea = rec.ea
            if rec.taken is not None:
                flags |= _FLAG_HAS_TAKEN
                if rec.taken:
                    flags |= _FLAG_TAKEN
            delta = rec.next_pc - rec.pc
            far = not (-32768 <= delta // 4 < 32768) or delta % 4 != 0
            if far:
                flags |= _FLAG_FAR_TARGET
            stream.write(_RECORD.pack(
                (rec.pc - text_base) >> 2, ea, rec.base_value,
                rec.offset_value if -(2**31) <= rec.offset_value < 2**31
                else rec.offset_value - 2**32,
                flags, 0 if far else delta // 4,
            ))
            if far:
                stream.write(struct.pack("<I", rec.next_pc))
    return count


def replay_trace(program: Program, path: str) -> Iterator[TraceRecord]:
    """Yield the recorded trace as :class:`TraceRecord` objects."""
    instructions = program.instructions
    text_base = program.text_base
    with gzip.open(path, "rb") as stream:
        validate_header(_read(stream, _HEADER.size, path), path, program)
        while True:
            raw = _read(stream, _RECORD.size, path)
            if not raw:
                return
            if len(raw) != _RECORD.size:
                raise SimulationError(f"{path}: truncated trace record")
            index, ea, base, offset, flags, delta = _RECORD.unpack(raw)
            pc = text_base + index * 4
            if flags & _FLAG_FAR_TARGET:
                extra = _read(stream, 4, path)
                if len(extra) != 4:
                    raise SimulationError(
                        f"{path}: truncated far-target record"
                    )
                next_pc = struct.unpack("<I", extra)[0]
            else:
                next_pc = pc + delta * 4
            taken = None
            if flags & _FLAG_HAS_TAKEN:
                taken = bool(flags & _FLAG_TAKEN)
            inst = instructions[index]
            # index-register offsets are register *values*: restore the
            # executor's unsigned view (constants stay signed)
            if offset < 0 and inst.info.mem_mode == "x":
                offset &= 0xFFFFFFFF
            yield TraceRecord(
                pc, inst,
                ea if flags & _FLAG_HAS_EA else None,
                base, offset, taken, next_pc,
            )


def replay_into(program: Program, path: str, consumer) -> int:
    """Stream a recorded trace into ``consumer``'s trace hooks.

    The consumer protocol matches :meth:`CPU.run_trace`: optional
    ``trace_plain(pc, inst)`` / ``trace_mem(rec)`` / ``trace_branch(rec)``
    methods, looked up once. No :class:`TraceRecord` is allocated for
    plain records (nor for any record whose hook is absent), and the
    stream is parsed from a buffered window instead of two reads per
    record. Returns the total number of records in the trace.
    """
    instructions = program.instructions
    text_base = program.text_base
    plain_cb = getattr(consumer, "trace_plain", None)
    mem_cb = getattr(consumer, "trace_mem", None)
    branch_cb = getattr(consumer, "trace_branch", None)
    # index-register offsets are register *values*: restore the
    # executor's unsigned view (constants stay signed)
    is_x = [OP_INFO[inst.op].mem_mode == "x" for inst in instructions]
    rec_size = _RECORD.size
    unpack = _RECORD.unpack_from
    count = 0
    with gzip.open(path, "rb") as stream:
        validate_header(_read(stream, _HEADER.size, path), path, program)
        buf = b""
        pos = 0
        while True:
            if len(buf) - pos < rec_size + 4:
                buf = buf[pos:] + _read(stream, 1 << 18, path)
                pos = 0
                if not buf:
                    return count
                if len(buf) < rec_size:
                    raise SimulationError(f"{path}: truncated trace record")
            index, ea, base, offset, flags, delta = unpack(buf, pos)
            pos += rec_size
            pc = text_base + index * 4
            if flags & _FLAG_FAR_TARGET:
                if len(buf) - pos < 4:
                    buf = buf[pos:] + _read(stream, 1 << 18, path)
                    pos = 0
                    if len(buf) < 4:
                        raise SimulationError(
                            f"{path}: truncated far-target record"
                        )
                next_pc = _U32.unpack_from(buf, pos)[0]
                pos += 4
            else:
                next_pc = pc + delta * 4
            count += 1
            if flags & _FLAG_HAS_EA:
                if mem_cb is not None:
                    if offset < 0 and is_x[index]:
                        offset &= 0xFFFFFFFF
                    mem_cb(TraceRecord(pc, instructions[index], ea, base,
                                       offset, None, next_pc))
            elif flags & _FLAG_HAS_TAKEN:
                if branch_cb is not None:
                    branch_cb(TraceRecord(pc, instructions[index], None,
                                          base, offset,
                                          bool(flags & _FLAG_TAKEN), next_pc))
            elif plain_cb is not None:
                plain_cb(pc, instructions[index])


def replay_simulate(program: Program, path: str,
                    config: MachineConfig | None = None,
                    memory_usage: int = 0):
    """Oracle of :func:`repro.cpu.tracefile.simulate_trace`: the
    recorded trace replayed record by record into the pipeline model."""
    pipe = PipelineSimulator(config)
    replay_into(program, path, pipe)
    return pipe.finalize(memory_usage=memory_usage)


# ------------------------------------------------------------------ #
# load-use distances

class DistanceTracker:
    """Load-use distance histogram, one retired record at a time.

    Distance = retired instructions between a load and the first
    consumer of its destination register (1 = back-to-back use).
    Register dependences are static per instruction, so they are
    resolved once per text word instead of once per retirement.
    """

    def __init__(self, histogram):
        self._record = histogram.record
        self._pending: dict[int, int] = {}  # register slot -> load index
        self._index = 0
        self._deps: dict[int, tuple] = {}   # id(inst) -> (srcs, dests, load)

    def observe(self, rec: TraceRecord) -> None:
        inst = rec.inst
        deps = self._deps.get(id(inst))
        if deps is None:
            sources, dests = sources_and_dests(inst)
            deps = self._deps[id(inst)] = (sources, dests, inst.info.is_load)
        sources, dests, is_load = deps
        pending = self._pending
        index = self._index
        if pending:
            for slot in sources:
                start = pending.pop(slot, None)
                if start is not None:
                    self._record(index - start)
        if is_load:
            for slot in dests:
                pending[slot] = index
        else:
            for slot in dests:
                pending.pop(slot, None)
        self._index = index + 1


# ------------------------------------------------------------------ #
# whole-stack equivalence

def step_simulate(program: Program, config: MachineConfig | None = None,
                  max_instructions: int = 50_000_000):
    """Oracle of :func:`repro.pipeline.pipeline.simulate_program`: the
    reference interpreter feeding the pipeline one record at a time."""
    cpu = CPU(program)
    pipe = PipelineSimulator(config)
    feed = pipe.feed
    for rec in step_records(cpu, max_instructions):
        feed(rec)
    return pipe.finalize(memory_usage=cpu.memory_usage)


def _canon(snapshot: dict) -> str:
    return json.dumps(snapshot, sort_keys=True)


def check_trace(program: Program, max_instructions: int, scratch: str,
                label: str = "program") -> tuple[list[str], str, CPU]:
    """Check 1: trace bytes and final executor state of
    :func:`record_trace` against the step-mode encoder. Returns the
    divergences, the product trace's path and the CPU that recorded it
    (the replay checks below need both)."""
    problems: list[str] = []
    oracle_path = os.path.join(scratch, f"{label}-step.fact.gz")
    path = os.path.join(scratch, f"{label}.fact.gz")
    oracle_cpu, cpu = CPU(program), CPU(program)
    record_trace_steps(program, oracle_path, max_instructions, cpu=oracle_cpu)
    record_trace(program, path, max_instructions, cpu=cpu)
    with open(oracle_path, "rb") as a, open(path, "rb") as b:
        if a.read() != b.read():
            problems.append("tracefile bytes differ")
    if (oracle_cpu.instructions_retired != cpu.instructions_retired
            or oracle_cpu.stdout() != cpu.stdout()
            or oracle_cpu.memory_usage != cpu.memory_usage
            or oracle_cpu.state.snapshot() != cpu.state.snapshot()):
        problems.append("executor state differs after record_trace")
    return problems, path, cpu


def check_analysis(program: Program, max_instructions: int, path: str,
                   cpu: CPU) -> list[str]:
    """Check 2: analysis snapshots, live and replayed from ``path``
    (recorded by ``cpu``), against the step+scalar oracle."""
    problems: list[str] = []
    meta = {"cell": "equivalence"}
    oracle = _canon(analysis_to_snapshot(
        step_analysis(program, per_pc=True,
                      max_instructions=max_instructions), meta=meta))
    live = _canon(analysis_to_snapshot(
        analyze_program(program, per_pc=True,
                        max_instructions=max_instructions), meta=meta))
    replayed = _canon(analysis_to_snapshot(
        analyze_trace(program, path, per_pc=True,
                      memory_usage=cpu.memory_usage, stdout=cpu.stdout()),
        meta=meta))
    if live != oracle:
        problems.append("analysis snapshot differs: live vs oracle")
    if replayed != oracle:
        problems.append("analysis snapshot differs: replay vs oracle")
    return problems


def check_sim(program: Program, max_instructions: int, path: str,
              cpu: CPU) -> list[str]:
    """Check 3: timing snapshots, live and replayed from ``path``
    (recorded by ``cpu``), against the step()-fed pipeline on every
    machine in ``MACHINES``."""
    problems: list[str] = []
    meta = {"cell": "equivalence"}
    for name, machine in MACHINES.items():
        oracle = _canon(sim_to_snapshot(
            step_simulate(program, machine, max_instructions), meta=meta))
        live = _canon(sim_to_snapshot(
            simulate_program(program, machine,
                             max_instructions=max_instructions), meta=meta))
        traced = _canon(sim_to_snapshot(
            simulate_trace(program, path, machine,
                           memory_usage=cpu.memory_usage), meta=meta))
        if live != oracle:
            problems.append(f"sim snapshot differs: live vs oracle ({name})")
        if traced != oracle:
            problems.append(f"sim snapshot differs: replay vs oracle ({name})")
    return problems


def check_program(program: Program, max_instructions: int, scratch: str,
                  label: str = "program") -> list[str]:
    """Check every product layer against its oracle on ``program``;
    returns the divergences found (empty when all agree)."""
    problems, path, cpu = check_trace(program, max_instructions, scratch,
                                      label)
    problems += check_analysis(program, max_instructions, path, cpu)
    problems += check_sim(program, max_instructions, path, cpu)
    return problems


def check_benchmark(name: str, max_instructions: int,
                    scratch: str) -> list[str]:
    """:func:`check_program` on one suite benchmark, built without
    software support."""
    return check_program(build_benchmark(name, software_support=False),
                         max_instructions, scratch, label=name)
