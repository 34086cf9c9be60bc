"""MiniC: a small optimizing C compiler for the extended-MIPS target.

MiniC covers the C subset the paper's benchmarks need -- ints, chars,
unsigned ints, doubles, pointers, arrays, structs, functions, the usual
statements and operators -- and implements the paper's *software support
for fast address calculation* (Section 4):

* global-pointer region alignment (via the linker),
* stack-frame size rounding and stack-pointer alignment,
* scalars-first stack frame layout,
* static variable alignment to the next power of two (capped),
* structure size rounding to the next power of two (capped),
* heap allocation alignment (via the runtime allocator),
* loop strength reduction, which converts register+register array
  accesses into zero-offset induction-pointer accesses.
"""

from repro.compiler.options import CompilerOptions, FacSoftwareOptions

_DRIVER = ("compile_and_link", "compile_source", "compile_units")

__all__ = [
    "CompilerOptions",
    "FacSoftwareOptions",
    "compile_and_link",
    "compile_source",
    "compile_units",
]


def __getattr__(name):
    # the driver pulls in the whole compiler: load it on first use, so
    # importing the option records (as farm parents do) stays cheap
    if name in _DRIVER:
        from repro.compiler import driver

        return getattr(driver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
