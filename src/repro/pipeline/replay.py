"""Fused single-pass timing replay of a recorded trace.

:func:`fused_replay` times a v1 trace file (see
:mod:`repro.cpu.tracefile`) on the Table 5 machine and returns exactly
the :class:`~repro.pipeline.result.SimResult` that
:class:`~repro.pipeline.pipeline.PipelineSimulator` computes for the
same records. The pipeline class stays the event-emitting model for
live, observed and traced runs, and the oracle this engine is checked
against (``replay_simulate`` in ``tests/oracles.py``); it is the body
of :func:`repro.cpu.tracefile.simulate_trace`, which the farm's sim
cells run.

The whole issue recurrence runs in one loop over local variables:

* the trace is parsed from bounded windows of the decompressed stream,
  and no :class:`~repro.cpu.executor.TraceRecord` is built;
* everything static about a text word -- I-cache block, functional
  unit, limit and latency, dependence slots, kind, FAC eligibility under
  this configuration -- is one tuple, built the first time the word
  retires;
* direct-mapped, write-allocate caches are inline tag lists (other
  geometries go through :meth:`Cache.access <repro.cache.cache.Cache.access>`);
* branch and FAC outcomes come from
  :meth:`BranchTargetBuffer.update <repro.pipeline.btb.BranchTargetBuffer.update>`
  and :meth:`FastAddressCalculator.fails
  <repro.fac.predictor.FastAddressCalculator.fails>`, so each keeps
  one definition.

The cache-port table reproduces the pipeline's rule exactly, because
results depend on it: every port query creates the cycle's entry, and
once the table holds more than 128 entries the cycles below the current
issue cycle are deleted. The store-buffer drain that follows reads
those deleted cycles as unused.

No numpy: a sim worker that imports it grows by ~10 MB of RSS.
"""

from __future__ import annotations

import gzip
from collections import deque

from repro.cache.cache import Cache
from repro.cpu.tracefile import (
    _FLAG_FAR_TARGET,
    _FLAG_TAKEN,
    _HEADER,
    _RECORD,
    _U32,
    _read,
    validate_header,
)
from repro.errors import SimulationError
from repro.fac.predictor import FastAddressCalculator
from repro.isa.opcodes import Op, OpClass, OP_INFO
from repro.isa.program import Program
from repro.pipeline.btb import BranchTargetBuffer
from repro.pipeline.config import MachineConfig
from repro.pipeline.deps import NUM_SLOTS, sources_and_dests
from repro.pipeline.pipeline import _FU_CLASS
from repro.pipeline.result import SimResult

_FU_INDEX = {"alu": 0, "ldst": 1, "imd": 2, "fpa": 3, "fpm": 4}

# instruction kinds
_PLAIN, _LOAD, _STORE, _JUMP, _BRANCH = range(5)
# FAC eligibility: never, always (post-increment: the address is the
# base register), or by the Section 5.5 policy with a constant or a
# register offset
_NO_SPEC, _SPEC_ALWAYS, _SPEC_CONST, _SPEC_REG = range(4)

_WINDOW = 1 << 18           # decompressed bytes parsed per read
_PORT_TABLE_LIMIT = 128     # PipelineSimulator._ports_at's prune threshold


def _fact_builder(program: Program, cfg: MachineConfig, fac):
    """Return ``make(index)``: the static facts of text word ``index``
    under ``cfg`` -- ``(iblock, fu, fu_limit, latency, non_pipelined,
    sources, dests, kind, spec)``."""
    limits = (cfg.int_alus, cfg.load_store_units, cfg.int_mult_div_units,
              cfg.fp_adders, cfg.fp_mult_div_units)
    non_pipelined = cfg.non_pipelined
    instructions = program.instructions
    text_base = program.text_base
    iblock_shift = cfg.icache.offset_bits
    speculates = fac is not None and not cfg.one_cycle_loads

    def make(index: int) -> tuple:
        inst = instructions[index]
        info = OP_INFO[inst.op]
        klass = info.klass
        fu = _FU_INDEX[_FU_CLASS[klass]]
        sources, dests = sources_and_dests(inst)
        spec = _NO_SPEC
        if info.is_load or info.is_store:
            kind = _LOAD if info.is_load else _STORE
            if speculates and info.mem_mode == "p":
                spec = _SPEC_ALWAYS
            elif speculates and fac.should_speculate(info.mem_mode == "x",
                                                     info.is_store):
                spec = _SPEC_REG if info.mem_mode == "x" else _SPEC_CONST
        elif klass is OpClass.BRANCH or klass is OpClass.JUMP:
            kind = _JUMP if inst.op in (Op.J, Op.JAL) else _BRANCH
        else:
            kind = _PLAIN
        return ((text_base + index * 4) >> iblock_shift, fu, limits[fu],
                cfg.result_latency(klass), klass in non_pipelined,
                sources, dests, kind, spec)

    return make


def _cache(config) -> tuple:
    """``(tags, index_mask, index_bits, None)`` for a direct-mapped,
    write-allocate cache, which an inline tag list models exactly;
    otherwise ``(None, 0, 0, Cache(config).access)``."""
    if config.assoc == 1 and config.write_allocate:
        return [-1] * config.num_sets, config.num_sets - 1, \
            config.index_bits, None
    return None, 0, 0, Cache(config).access


def _port_usage(ports: dict, cycle: int, floor: int) -> list[int]:
    """``PipelineSimulator._ports_at``: the ``[loads, stores]`` entry of
    ``cycle``, created by the query; past 128 entries, the cycles below
    ``floor`` (the current issue cycle) are deleted."""
    usage = ports.get(cycle)
    if usage is None:
        usage = ports[cycle] = [0, 0]
        if len(ports) > _PORT_TABLE_LIMIT:
            for key in [k for k in ports if k < floor]:
                del ports[key]
    return usage


def _drain(store_buffer: deque, ports: dict, cursor: int, upto: int) -> int:
    """``PipelineSimulator._drain_store_buffer`` on a non-empty buffer:
    the head entry retires in each unused cache cycle of
    ``[cursor, upto)`` once it is ready. Returns the new cursor."""
    at = cursor
    while at < upto:
        head = store_buffer[0]
        if head > at:
            # nothing retires before the head is ready
            if head >= upto:
                return upto
            at = head
        usage = ports.get(at)
        at += 1
        if usage is None or not (usage[0] or usage[1]):
            store_buffer.popleft()
            if not store_buffer:
                break
    return at


def fused_replay(program: Program, path: str,
                 config: MachineConfig | None = None,
                 memory_usage: int = 0) -> SimResult:
    """Time the trace at ``path`` (recorded from ``program``) on the
    pipeline model; see :func:`repro.cpu.tracefile.simulate_trace`."""
    cfg = config or MachineConfig()
    fac = FastAddressCalculator(cfg.fac) if cfg.fac is not None else None
    fails = fac.fails if fac is not None else None
    btb = BranchTargetBuffer(cfg.btb_entries)
    btb_update = btb.update
    facts = [None] * len(program.instructions)
    make_facts = _fact_builder(program, cfg, fac)
    text_base = program.text_base

    issue_width = cfg.issue_width
    read_ports = cfg.dcache_read_ports
    write_ports = cfg.dcache_write_ports
    sb_entries = cfg.store_buffer_entries
    one_cycle = cfg.one_cycle_loads
    count_not_speculated = fac is not None and not one_cycle
    mispredict_penalty = cfg.branch_mispredict_penalty
    imiss_latency = cfg.icache.miss_latency
    dmiss_latency = 0 if cfg.perfect_dcache else cfg.dcache.miss_latency
    doffset_bits = cfg.dcache.offset_bits

    itags, imask, ibits, iaccess = _cache(cfg.icache)
    dtags, dmask, dbits, daccess = _cache(cfg.dcache)

    # issue state (PipelineSimulator's attributes, as locals)
    reg_ready = [0] * NUM_SLOTS
    cur = 0
    issued = 0
    fu_used = [0, 0, 0, 0, 0]
    unit_free = [0, 0, 0, 0, 0]
    fetch_ready = 0
    last_iblock = -1
    ports: dict[int, list[int]] = {}   # cycle -> [loads, stores]
    store_buffer: deque[int] = deque()
    sb_cursor = 0
    mispredict_cycle = -2
    mispredict_was_load = False
    final_cycle = 0

    # counters
    instructions = loads = stores = dcache_misses = 0
    icache_accesses = icache_misses = branches = branch_mispredicts = 0
    fac_speculated = fac_not_speculated = 0
    fac_load_mispredicted = fac_store_mispredicted = 0
    store_buffer_full_stalls = load_latency_sum = 0

    rec_size = _RECORD.size
    unpack = _RECORD.unpack_from
    with gzip.open(path, "rb") as stream:
        validate_header(_read(stream, _HEADER.size, path), path, program)
        buf = b""
        pos = 0
        final = False
        while not final:
            chunk = _read(stream, _WINDOW, path)
            buf = buf[pos:] + chunk
            pos = 0
            final = not chunk
            # a non-final window keeps room for a far-target word
            limit = len(buf) - (rec_size if final else rec_size + 4)
            while pos <= limit:
                index, ea, base, offset, flags, delta = unpack(buf, pos)
                pos += rec_size
                if flags & _FLAG_FAR_TARGET:
                    if len(buf) - pos < 4:
                        raise SimulationError(
                            f"{path}: truncated far-target record")
                    next_pc = _U32.unpack_from(buf, pos)[0]
                    pos += 4
                f = facts[index]
                if f is None:
                    f = facts[index] = make_facts(index)
                (iblock, fu, fu_limit, latency, non_pipelined,
                 sources, dests, kind, spec) = f

                # ---- fetch constraints ----
                if iblock != last_iblock:
                    last_iblock = iblock
                    icache_accesses += 1
                    if itags is not None:
                        line = iblock & imask
                        if itags[line] != iblock >> ibits:
                            itags[line] = iblock >> ibits
                            icache_misses += 1
                            fetch_ready = (fetch_ready if fetch_ready > cur
                                           else cur) + imiss_latency
                    elif not iaccess(text_base + index * 4):
                        icache_misses += 1
                        fetch_ready = (fetch_ready if fetch_ready > cur
                                       else cur) + imiss_latency

                # ---- data hazards ----
                cycle = fetch_ready if fetch_ready > cur else cur
                for slot in sources:
                    if reg_ready[slot] > cycle:
                        cycle = reg_ready[slot]

                # ---- structural hazards ----
                if cycle == cur and (issued >= issue_width
                                     or fu_used[fu] >= fu_limit):
                    cycle += 1
                if unit_free[fu] > cycle:
                    cycle = unit_free[fu]
                if kind == _LOAD or kind == _STORE:
                    is_store = kind == _STORE
                    while True:
                        # cache-port plan: (speculate, access cycle)
                        speculate = False
                        access = cycle if one_cycle else cycle + 1
                        if spec and (spec == _SPEC_ALWAYS
                                     or mispredict_cycle != cycle - 1
                                     or (mispredict_was_load
                                         and not is_store)):
                            usage = _port_usage(ports, cycle, cur)
                            if (usage[0] == 0 and usage[1] < write_ports
                                    if is_store else
                                    usage[1] == 0 and usage[0] < read_ports):
                                speculate = True
                                access = cycle
                        if not speculate:
                            usage = _port_usage(ports, access, cur)
                            if not (usage[0] == 0 and usage[1] < write_ports
                                    if is_store else
                                    usage[1] == 0 and usage[0] < read_ports):
                                cycle += 1
                                continue
                        if is_store and len(store_buffer) >= sb_entries:
                            sb_cursor = _drain(store_buffer, ports,
                                               sb_cursor, cycle)
                            if len(store_buffer) >= sb_entries:
                                # forced retirement stalls a cycle
                                store_buffer_full_stalls += 1
                                store_buffer.popleft()
                                cycle += 1
                                continue
                        break

                # ---- issue ----
                if cycle > cur:
                    cur = cycle
                    issued = 1
                    fu_used = [0, 0, 0, 0, 0]
                    fu_used[fu] = 1
                else:
                    issued += 1
                    fu_used[fu] += 1
                if non_pipelined:
                    unit_free[fu] = cycle + latency

                # ---- execute ----
                if kind == _PLAIN:
                    ready = cycle + latency
                elif kind == _LOAD or kind == _STORE:
                    if is_store:
                        stores += 1
                    else:
                        loads += 1
                    if dtags is not None:
                        block = ea >> doffset_bits
                        line = block & dmask
                        if dtags[line] == block >> dbits:
                            penalty = 0
                        else:
                            dtags[line] = block >> dbits
                            dcache_misses += 1
                            penalty = dmiss_latency
                    elif daccess(ea, is_store):
                        penalty = 0
                    else:
                        dcache_misses += 1
                        penalty = dmiss_latency
                    if not speculate:
                        ports[access][is_store] += 1
                        if count_not_speculated:
                            fac_not_speculated += 1
                        ready = access + 1 + penalty
                    elif spec == _SPEC_ALWAYS:
                        ports[cycle][is_store] += 1
                        ready = cycle + 1 + penalty
                    else:
                        fac_speculated += 1
                        ports[cycle][is_store] += 1
                        if not fails(base, offset, spec == _SPEC_REG):
                            ready = cycle + 1 + penalty
                        else:
                            # replay with the real address in MEM
                            if is_store:
                                fac_store_mispredicted += 1
                            else:
                                fac_load_mispredicted += 1
                            mispredict_cycle = cycle
                            mispredict_was_load = not is_store
                            _port_usage(ports, cycle + 1, cur)[is_store] += 1
                            ready = cycle + 2 + penalty
                    if is_store:
                        store_buffer.append(ready)
                        ready = cycle + 1
                    else:
                        load_latency_sum += ready - cycle
                else:
                    ready = cycle + latency
                    if kind == _JUMP:
                        # direct jumps redirect at decode: the issue
                        # group breaks at the taken jump
                        if cycle + 1 > fetch_ready:
                            fetch_ready = cycle + 1
                    else:
                        pc = text_base + index * 4
                        taken = bool(flags & _FLAG_TAKEN)
                        branches += 1
                        if not flags & _FLAG_FAR_TARGET:
                            next_pc = pc + delta * 4
                        if not btb_update(pc, taken, next_pc):
                            branch_mispredicts += 1
                            if cycle + 1 + mispredict_penalty > fetch_ready:
                                fetch_ready = cycle + 1 + mispredict_penalty
                        elif taken and cycle + 1 > fetch_ready:
                            fetch_ready = cycle + 1
                for slot in dests:
                    reg_ready[slot] = ready

                instructions += 1
                if ready > final_cycle:
                    final_cycle = ready
                if cycle + 1 > final_cycle:
                    final_cycle = cycle + 1
                # ---- retire buffered stores in unused cycles ----
                if cycle > sb_cursor:
                    sb_cursor = (_drain(store_buffer, ports, sb_cursor, cycle)
                                 if store_buffer else cycle)
            if final and pos != len(buf):
                raise SimulationError(f"{path}: truncated trace record")

    # drain the store buffer
    cycle = final_cycle if final_cycle > sb_cursor else sb_cursor
    for ready in store_buffer:
        cycle = (ready if ready > cycle else cycle) + 1
    fac_mispredicted = fac_load_mispredicted + fac_store_mispredicted
    result = SimResult(
        cycles=final_cycle if final_cycle > cycle else cycle,
        instructions=instructions,
        loads=loads,
        stores=stores,
        dcache_accesses=loads + stores,
        dcache_misses=dcache_misses,
        icache_accesses=icache_accesses,
        icache_misses=icache_misses,
        branches=branches,
        branch_mispredicts=branch_mispredicts,
        fac_speculated=fac_speculated,
        fac_mispredicted=fac_mispredicted,
        fac_not_speculated=fac_not_speculated,
        fac_load_mispredicted=fac_load_mispredicted,
        fac_store_mispredicted=fac_store_mispredicted,
        store_buffer_full_stalls=store_buffer_full_stalls,
        load_latency_sum=load_latency_sum,
        memory_usage=memory_usage,
    )
    result.extras["btb_accuracy"] = btb.accuracy
    return result
