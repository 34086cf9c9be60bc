#!/usr/bin/env python3
"""Oracle equivalence checker: every simulator layer against its oracle.

For each requested benchmark this runs
:func:`tests.oracles.check_benchmark`, which verifies bit for bit:

1. ``record_trace`` output bytes against the ``step()``-driven reference
   encoder (plus the executor's final architectural state, stdout, and
   retired-instruction count),
2. ``TraceAnalysis`` ``repro.metrics/1`` snapshots from the live and the
   trace-replay analysis against the ``step()`` + scalar-analyzer
   oracle,
3. ``SimResult`` snapshots from the live and the trace-replay timing
   paths against the ``step()``-fed pipeline, across several machine
   flavours.

Run with no arguments for one representative benchmark, name benchmarks
explicitly, or pass ``all`` for the full 19-program suite (the CI
``sim-equivalence`` job)::

    python tools/check_sim_equivalence.py
    python tools/check_sim_equivalence.py compress tomcatv
    python tools/check_sim_equivalence.py --max-instructions 200000 all

Exits non-zero when any benchmark diverges.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO), str(REPO / "src")]
os.environ.setdefault("REPRO_FARM", "off")

from repro.workloads.suite import BENCHMARKS  # noqa: E402
from tests.oracles import check_benchmark  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmarks", nargs="*", default=["compress"],
                        help="benchmark names, or 'all' (default: compress)")
    parser.add_argument("--max-instructions", type=int, default=300_000)
    args = parser.parse_args(argv)

    names = tuple(args.benchmarks)
    if names == ("all",):
        names = tuple(BENCHMARKS)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        parser.error(f"unknown benchmarks: {unknown}")

    failures = 0
    with tempfile.TemporaryDirectory(prefix="sim-equivalence-") as scratch:
        for name in names:
            problems = check_benchmark(name, args.max_instructions, scratch)
            if problems:
                failures += 1
                for problem in problems:
                    print(f"{name}: FAIL - {problem}")
            else:
                print(f"{name}: ok")
    if failures:
        print(f"{failures}/{len(names)} benchmarks diverged", file=sys.stderr)
        return 1
    print(f"all {len(names)} benchmarks bit-for-bit equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
