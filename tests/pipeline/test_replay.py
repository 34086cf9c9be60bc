"""The fused trace replay (``simulate_trace``) against its oracle.

``replay_simulate`` (``tests/oracles.py``) feeds the same trace record
by record into :class:`~repro.pipeline.pipeline.PipelineSimulator`;
the two ``SimResult`` snapshots must be equal. The machines below take
the engine off its inline paths: set-associative and no-write-allocate
caches go through ``Cache.access``, a one-entry store buffer forces
retirement stalls, a 16-entry BTB aliases, and the FAC policy switches
leave some accesses unspeculated. Full ``xlisp`` under fac16 depends on
the pipeline's port-table pruning (its store-buffer stall and
speculation counts change without it), so it pins that rule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache.cache import CacheConfig
from repro.cpu import CPU
from repro.cpu.tracefile import record_trace, simulate_trace
from repro.fac.config import FacConfig
from repro.farm.snapshots import sim_to_snapshot
from repro.isa.assembler import assemble
from repro.linker import LinkOptions, link
from repro.pipeline.config import MachineConfig
from repro.workloads import build_benchmark
from tests.oracles import replay_simulate

FIXTURE_DIR = Path(__file__).parent.parent / "obs" / "fixtures"
FIXTURES = ("sig_overflow", "sig_gen_carry", "sig_large_neg_const",
            "sig_neg_index_reg")
FAC16 = FacConfig(block_size=16)

MACHINES = {
    "fac16": MachineConfig(fac=FAC16),
    "assoc2-noalloc": MachineConfig(
        icache=CacheConfig(size=16 * 1024, block_size=32, assoc=2,
                           miss_latency=6, name="icache"),
        dcache=CacheConfig(size=16 * 1024, block_size=32, assoc=2,
                           miss_latency=6, write_allocate=False,
                           name="dcache"),
        fac=FAC16),
    "narrow": MachineConfig(store_buffer_entries=1, issue_width=1,
                            btb_entries=16, fac=FAC16),
    "ideal-dcache": MachineConfig(
        perfect_dcache=True,
        fac=FacConfig(speculate_stores=False, speculate_reg_reg=False,
                      full_tag_add=False)),
    "1cyc": MachineConfig(one_cycle_loads=True),
}

# name -> instruction budget (None: run to completion)
PROGRAMS = {**{name: None for name in FIXTURES},
            "compress": 120_000, "xlisp": None}


def _program(name):
    if name in FIXTURES:
        source = (FIXTURE_DIR / f"{name}.s").read_text()
        return link([assemble(source, f"{name}.s")], LinkOptions())
    return build_benchmark(name, software_support=False)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """name -> (program, trace path, memory usage), recorded once."""
    scratch = tmp_path_factory.mktemp("replay")
    out = {}
    for name, budget in PROGRAMS.items():
        program = _program(name)
        path = str(scratch / f"{name}.fact.gz")
        cpu = CPU(program)
        record_trace(program, path, budget or 50_000_000, cpu=cpu)
        out[name] = (program, path, cpu.memory_usage)
    return out


def _snapshot(result) -> str:
    return json.dumps(sim_to_snapshot(result, meta={}), sort_keys=True)


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("name", PROGRAMS)
def test_fused_replay_matches_oracle(traces, name, machine):
    program, path, memory_usage = traces[name]
    config = MACHINES[machine]
    assert _snapshot(simulate_trace(program, path, config, memory_usage)) \
        == _snapshot(replay_simulate(program, path, config, memory_usage))


def test_far_register_jump_matches_oracle(tmp_path):
    # a jr whose target is out of the record's 16-bit delta range: the
    # next pc comes from the far-target word and feeds the BTB
    filler = "    nop\n" * 33000
    source = (".text\n.globl __start\n__start:\n"
              "    la $t0, far_away\n    jr $t0\n" + filler
              + "far_away:\n    li $v0, 10\n    syscall\n")
    program = link([assemble(source, "far.s")], LinkOptions())
    path = str(tmp_path / "far.fact.gz")
    record_trace(program, path)
    for config in (MachineConfig(), MACHINES["narrow"]):
        result = simulate_trace(program, path, config)
        assert result.branch_mispredicts == 1
        assert _snapshot(result) == \
            _snapshot(replay_simulate(program, path, config))


def test_simulate_trace_imports_no_numpy(traces):
    # the columnar decoder needs numpy; the sim path must not load it
    program_name = "sig_overflow"
    _, path, _ = traces[program_name]
    root = Path(__file__).resolve().parents[2]
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from repro.cpu.tracefile import simulate_trace\n"
        "from repro.isa.assembler import assemble\n"
        "from repro.linker import LinkOptions, link\n"
        f"source = Path({str(FIXTURE_DIR / (program_name + '.s'))!r})"
        ".read_text()\n"
        "program = link([assemble(source, 'f.s')], LinkOptions())\n"
        f"assert simulate_trace(program, {path!r}).instructions > 0\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert out.stdout.strip() == "False"
