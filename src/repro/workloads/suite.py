"""Benchmark registry and build helpers.

Each entry names a paper benchmark (Table 2) and points at the MiniC
kernel that reproduces its *addressing personality* -- the reference-type
mix and offset profile that drive fast-address-calculation behaviour.
Full SPEC92 runs are far beyond a pure-Python cycle simulator, so the
kernels are scaled to tens of thousands of dynamic instructions; see
DESIGN.md ("Substitutions") for the fidelity argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import repro.compiler
from repro.compiler.options import CompilerOptions, FacSoftwareOptions
from repro.isa.program import Program

_PROGRAM_DIR = Path(__file__).parent / "programs"


@dataclass(frozen=True)
class Benchmark:
    """One suite entry."""

    name: str
    category: str          # 'int' or 'fp'
    description: str
    expected_output: str   # stdout of a correct run (any options)


BENCHMARKS: dict[str, Benchmark] = {}


def _register(name: str, category: str, description: str, expected: str) -> None:
    BENCHMARKS[name] = Benchmark(name, category, description, expected)


_register("compress", "int", "LZW-style adaptive compression over a generated buffer",
          "codes=718 hash=46319\n")
_register("eqntott", "int", "truth-table term comparison and insertion sort",
          "sig=12703337\n")
_register("espresso", "int", "boolean cube containment and cofactoring over bitsets",
          "covered=0 sig=14088487\n")
_register("gcc", "int", "expression-tree building/folding with an obstack allocator",
          "nodes=680 walked=680 folds=335 sig=9441728\n")
_register("sc", "int", "spreadsheet recalculation with recursive formula evaluation",
          "evals=4536 sig=9528570\n")
_register("xlisp", "int", "cons-cell list workload with mark/sweep collection",
          "allocs=1733 collected=1197 sig=8007430\n")
_register("elvis", "int", "batch editor: global search and replace on a text buffer",
          "replaced=219 words=406 sig=7568920\n")
_register("grep", "int", "DFA regular-expression matching over generated text",
          "matches=353 sig=7644874\n")
_register("perl", "int", "bytecode interpreter with value stack and hash table",
          "executed=1536 sp=31 sig=5792470\n")
_register("yacr2", "int", "channel routing with track occupancy matrices",
          "routed=96 conflicts=0 sig=6113014\n")
_register("alvinn", "fp", "back-propagation network: dense double dot products",
          "sig=397010\n")
_register("doduc", "fp", "Monte Carlo thermohydraulics with many global scalars",
          "steps=30 sig=50803\n")
_register("ear", "fp", "cochlear filter bank: cascaded IIR sections",
          "sig=15335\n")
_register("mdljdp2", "fp", "molecular dynamics, parallel coordinate arrays",
          "pairs=210 sig=93065\n")
_register("mdljsp2", "fp", "molecular dynamics, array-of-structures layout",
          "inter=944 sig=1248\n")
_register("ora", "fp", "optical ray tracing: scalar FP dependence chains",
          "rays=300 sig=49839\n")
_register("spice", "fp", "sparse Gauss-Seidel solver with index-array gathers",
          "nnz=259 sig=16058\n")
_register("su2cor", "fp", "lattice sweeps with computed neighbour indices",
          "sig=132562\n")
_register("tomcatv", "fp", "mesh relaxation with flattened 2D subscripts",
          "sig=1522\n")

INT_BENCHMARKS = tuple(n for n, b in BENCHMARKS.items() if b.category == "int")
FP_BENCHMARKS = tuple(n for n, b in BENCHMARKS.items() if b.category == "fp")


def load_source(name: str) -> str:
    """Read the MiniC source of benchmark ``name``."""
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}")
    return (_PROGRAM_DIR / f"{name}.mc").read_text()


def __getattr__(name):
    # ``compile_and_link`` stays readable here; the builds below look it
    # up on repro.compiler at call time, which loads the compiler lazily
    if name == "compile_and_link":
        return repro.compiler.compile_and_link
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@lru_cache(maxsize=64)
def _build_cached(name: str, software_support: bool) -> Program:
    options = CompilerOptions()
    if software_support:
        options = options.with_fac(FacSoftwareOptions.enabled())
    return repro.compiler.compile_and_link(load_source(name), options)


def build_benchmark(
    name: str,
    software_support: bool = False,
    options: CompilerOptions | None = None,
) -> Program:
    """Compile + link one benchmark.

    ``software_support`` selects the paper's Section 4 compiler/linker
    support; pass explicit ``options`` to override entirely (uncached).
    """
    if options is not None:
        return repro.compiler.compile_and_link(load_source(name), options)
    return _build_cached(name, software_support)
