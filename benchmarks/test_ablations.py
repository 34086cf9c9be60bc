"""Ablations of the design choices DESIGN.md calls out.

* full tag addition vs OR-only tag (Section 3.1: "of limited value"),
* speculating stores vs loads only,
* each software-support knob in isolation (gp alignment, frame
  alignment, static alignment, malloc alignment, struct padding).
"""

from dataclasses import replace

from repro.analysis.prediction import analyze_program
from repro.analysis.reporting import format_table
from repro.compiler import CompilerOptions, FacSoftwareOptions
from repro.cpu import CPU
from repro.fac.config import FacConfig
from repro.pipeline import MachineConfig
from repro.pipeline.pipeline import simulate_program
from repro.workloads import build_benchmark
from tests.oracles import TraceAnalyzer, step_records

ABLATION_PROGRAMS = ("compress", "xlisp", "spice")


def _failure_rate(program, full_tag_add: bool) -> float:
    analyzer = TraceAnalyzer(block_sizes=(32,), full_tag_add=full_tag_add)
    for rec in step_records(CPU(program)):
        analyzer.observe(rec)
    stats = analyzer.stats[32]
    return stats.overall_failure_rate


def test_tag_full_add_vs_or(benchmark):
    """Full tag addition buys little: the index OR already filters almost
    every case where the tag would differ."""

    def run():
        rows = []
        for name in ABLATION_PROGRAMS:
            program = build_benchmark(name, software_support=False)
            with_add = _failure_rate(program, full_tag_add=True)
            with_or = _failure_rate(program, full_tag_add=False)
            rows.append([name, 100 * with_add, 100 * with_or,
                         100 * (with_or - with_add)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(["benchmark", "fullTag%", "orTag%", "delta"],
                       rows, title="Ablation: tag adder vs OR-only tag"))
    for __, with_add, with_or, __delta in rows:
        assert with_or >= with_add - 1e-9
        assert with_or - with_add < 6.0  # "of limited value"


def test_store_speculation(benchmark):
    """Speculating stores helps this in-order memory pipeline (stalling a
    store can stall a following load)."""

    def run():
        rows = []
        for name in ABLATION_PROGRAMS:
            program = build_benchmark(name, software_support=True)
            both = simulate_program(program, MachineConfig(fac=FacConfig()))
            loads_only = simulate_program(
                program, MachineConfig(fac=FacConfig(speculate_stores=False)))
            rows.append([name, both.cycles, loads_only.cycles])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(["benchmark", "spec stores", "loads only"],
                       rows, title="Ablation: store speculation"))
    for __, both, loads_only in rows:
        assert both <= loads_only * 1.02


KNOBS = {
    "align_gp": {"align_gp": True},
    "frames": {"frame_align": 64, "max_frame_align": 256,
               "sort_scalars_first": True},
    "static": {"static_align_cap": 32},
    "malloc": {"malloc_align": 32},
    "structs": {"struct_pad_cap": 16},
}


def test_software_knobs_individually(benchmark):
    """Each Section 4 knob should reduce (or not worsen) the failure rate
    of the access class it targets."""

    def run():
        rows = []
        for name in ABLATION_PROGRAMS:
            base_options = CompilerOptions()
            base_program = build_benchmark(name, options=base_options)
            base_rate = analyze_program(base_program).predictions[32] \
                .overall_failure_rate
            row = [name, 100 * base_rate]
            for knob, kwargs in KNOBS.items():
                fac = replace(FacSoftwareOptions(), **kwargs)
                program = build_benchmark(name, options=base_options.with_fac(fac))
                rate = analyze_program(program).predictions[32].overall_failure_rate
                row.append(100 * rate)
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(["benchmark", "none"] + list(KNOBS), rows,
                       title="Ablation: software-support knobs in isolation"))
    # combined support (all knobs) must beat any single knob -- checked
    # against the Table 4 harness elsewhere; here: no knob alone should
    # catastrophically regress the failure rate
    for row in rows:
        base_rate = row[1]
        for value in row[2:]:
            assert value <= base_rate + 15.0


def test_align_large_arrays_extension(benchmark):
    """Future-work extension (Section 5.4): aligning large arrays to
    their own size rescues register+register index addressing -- the
    paper predicts this eliminates nearly all of spice's mispredictions."""

    def run():
        rows = []
        for name in ("spice", "su2cor", "compress"):
            options = CompilerOptions(fac=FacSoftwareOptions.enabled())
            plain = analyze_program(build_benchmark(name, options=options)) \
                .predictions[32].overall_failure_rate
            boosted_fac = replace(FacSoftwareOptions.enabled(),
                                  align_large_arrays=True)
            boosted = analyze_program(
                build_benchmark(name, options=options.with_fac(boosted_fac))
            ).predictions[32].overall_failure_rate
            rows.append([name, 100 * plain, 100 * boosted])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(["benchmark", "sw%", "sw+bigalign%"], rows,
                       title="Ablation: align large arrays to their size"))
    for __, plain, boosted in rows:
        assert boosted <= plain + 1e-9
    # spice specifically should collapse, per the paper's prediction
    assert rows[0][2] < rows[0][1] / 2


def test_cache_size_sensitivity(benchmark):
    """Larger caches widen the set-index field that must be carry-free,
    so (with a full tag adder) prediction failure rates grow monotonically
    with cache size -- the flip side of Section 3.1's observation that
    small caches leave more address bits to the always-correct tag adder."""

    sizes = (4 * 1024, 16 * 1024, 64 * 1024)

    def run():
        rows = []
        for name in ABLATION_PROGRAMS:
            program = build_benchmark(name, software_support=False)
            row = [name]
            for size in sizes:
                analyzer = TraceAnalyzer(block_sizes=(32,), cache_size=size)
                for rec in step_records(CPU(program)):
                    analyzer.observe(rec)
                row.append(100 * analyzer.stats[32].overall_failure_rate)
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(["benchmark", "4K%", "16K%", "64K%"], rows,
                       title="Ablation: predictor failure rate vs cache size"))
    for __, small, medium, large in rows:
        assert small <= medium + 1e-9 <= large + 2e-9
