"""Run ``repro serve`` on an ephemeral port for the benchmark.

    python perfbench/server.py --store DIR [--trace-out FILE]

The service runs in this process, apart from the load generator, so the
two never share an interpreter lock. With ``--trace-out`` the layer
wrappers of :mod:`layers` are installed first (the farm workers the
service forks inherit them); the per-layer totals are written to FILE
when the service stops on SIGINT.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    # the benchmark stops the service with SIGINT, which a shell that
    # starts the benchmark in the background leaves ignored
    signal.signal(signal.SIGINT, signal.default_int_handler)

    tracing = None
    if args.trace_out:
        from layers import LayerTracing

        tracing = LayerTracing()
        tracing.install()
    from repro.__main__ import main as repro_main

    try:
        return repro_main(["serve", "--store", args.store, "--port", "0"])
    finally:
        if tracing is not None:
            Path(args.trace_out).write_text(json.dumps(tracing.report()))


if __name__ == "__main__":
    sys.exit(main())
