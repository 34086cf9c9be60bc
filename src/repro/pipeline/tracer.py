"""Cycle-by-cycle pipeline diagrams (the paper's Figure 1).

Attach a trace list to a :class:`PipelineSimulator`, feed it a program,
and render the classic stage chart::

    cycle            1    2    3    4    5    6    7
    add $t2,...      IF   ID   EX   WB
    lw $t3, 4($t2)        IF   ID   EX   MEM  WB
    sub $t4,...           IF   ID   --   EX   WB

Stage mapping is reconstructed from the issue cycle ``t``: ``IF`` at
``t-2``, ``ID`` at ``t-1``, ``EX`` at ``t``, ``MEM`` at the cache-access
cycle for memory operations, ``WB`` when the result is ready. A ``--``
cell marks a cycle the instruction spent stalled in decode waiting to
issue (the untolerated load-use hazard of Figure 1). With fast address
calculation the cache access moves into EX and the stall disappears.
"""

from __future__ import annotations

from repro.cpu.executor import CPU
from repro.isa.disassembler import disassemble
from repro.isa.program import Program
from repro.pipeline.config import MachineConfig
from repro.pipeline.pipeline import PipelineSimulator


class TracedRun:
    """The recorded trace of one simulation, with a renderer."""

    def __init__(self, entries: list, cycles: int):
        self.entries = entries  # (rec, issue, ready, mem_access or None)
        self.cycles = cycles

    def render(self, first: int = 0, count: int = 10, label_width: int = 22) -> str:
        """Render instructions [first, first+count) as a stage chart."""
        window = self.entries[first:first + count]
        if not window:
            return "(empty trace)"
        start_cycle = min(issue - 2 for __, issue, __r, __a in window)
        end_cycle = max(max(ready, issue + 1)
                        for __, issue, ready, __a in window)
        width = 5
        header = "cycle".ljust(label_width) + "".join(
            str(c - start_cycle + 1).center(width)
            for c in range(start_cycle, end_cycle + 1)
        )
        lines = [header]
        prev_issue = None
        for rec, issue, ready, access in window:
            stages: dict[int, str] = {issue - 2: "IF", issue - 1: "ID", issue: "EX"}
            if access is not None and access != issue:
                stages[access] = "MEM"
            wb = max(ready, issue + 1)
            if wb not in stages:
                stages[wb] = "WB"
            # mark decode stalls: cycles between this instruction's
            # natural slot (one after the previous issue) and its issue
            if prev_issue is not None:
                for stalled in range(prev_issue + 1, issue):
                    stages.setdefault(stalled, "--")
            prev_issue = issue
            label = disassemble(rec.inst)[:label_width - 1]
            row = label.ljust(label_width)
            for cycle in range(start_cycle, end_cycle + 1):
                row += stages.get(cycle, "").center(width)
            lines.append(row.rstrip())
        return "\n".join(lines)

    def issue_cycle(self, index: int) -> int:
        return self.entries[index][1]


def trace_program(program: Program, config: MachineConfig | None = None,
                  max_instructions: int = 100_000) -> TracedRun:
    """Run ``program`` and record every instruction's pipeline timing."""
    cpu = CPU(program)
    pipe = PipelineSimulator(config)
    pipe.trace = []
    # an attached trace list makes the pipeline's plain-instruction fast
    # lane fall back to full feed(), so every entry is recorded
    cpu.run_trace(pipe, max_instructions)
    result = pipe.finalize()
    return TracedRun(pipe.trace, result.cycles)
