"""Benchmark-harness configuration.

Each ``benchmarks/test_*.py`` regenerates one paper table or figure and
prints it (run with ``-s`` to see the output). The suite defaults to a
representative 6-program slice so ``pytest benchmarks/ --benchmark-only``
finishes in minutes; set ``REPRO_SUITE`` to a comma-separated benchmark
list, or ``REPRO_SUITE=all`` for the full 19-program reproduction used
in EXPERIMENTS.md.

The throughput gates compare against rates recorded on one host; the
baseline helpers below load such a file only when it was recorded on
the current interpreter and machine, and re-record it otherwise. The
oracles those gates measure (``tests/oracles.py``) are importable
because the repository root is put on ``sys.path`` here.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import pytest

from repro.workloads import BENCHMARKS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

DEFAULT_SLICE = ("compress", "grep", "xlisp", "alvinn", "spice", "tomcatv")


@pytest.fixture(scope="session", autouse=True)
def _session_farm_store(tmp_path_factory):
    """One farm store for the whole benchmark session: harnesses that
    share cells (e.g. table3 and table4 both need the baseline sims)
    reuse each other's artifacts, but nothing leaks into the repo or
    across pytest invocations."""
    from repro.farm import api

    root = tmp_path_factory.mktemp("farm-store")
    previous = os.environ.get(api.ENV_DIR)
    os.environ[api.ENV_DIR] = str(root)
    api.clear_memo()
    yield
    if previous is None:
        os.environ.pop(api.ENV_DIR, None)
    else:
        os.environ[api.ENV_DIR] = previous
    api.clear_memo()


def harness_suite() -> tuple[str, ...]:
    env = os.environ.get("REPRO_SUITE", "").strip()
    if env.lower() == "all":
        return tuple(BENCHMARKS)
    if env:
        return tuple(n.strip() for n in env.split(",") if n.strip())
    return DEFAULT_SLICE


@pytest.fixture(scope="session")
def suite() -> tuple[str, ...]:
    names = harness_suite()
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise pytest.UsageError(f"unknown benchmarks in REPRO_SUITE: {unknown}")
    return names


def fingerprint() -> dict:
    """The host facts a recorded throughput baseline is valid for."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def load_host_baseline(path: Path, schema: str, workloads) -> dict | None:
    """The baseline document at ``path``, or None when it is missing,
    has another schema or workload list, or was recorded on another
    host (callers then re-measure instead of comparing)."""
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    if (payload.get("schema") != schema
            or payload.get("fingerprint") != fingerprint()
            or tuple(payload.get("workloads", ())) != tuple(workloads)):
        return None
    return payload


def record_host_baseline(path: Path, schema: str, workloads,
                         fields: dict) -> dict:
    """Write ``fields`` as this host's baseline document and return it."""
    payload = {"schema": schema, "workloads": list(workloads), **fields,
               "fingerprint": fingerprint()}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload
