"""One cold farm sweep, then all-hit warm passes, in a fresh process.

    python perfbench/sweep.py --workload sweep-timing --store DIR \
        --seconds 20 [--trace] [--setup-only]

``run.py`` starts this script once per cold repeat, so every cold sweep
gets a fresh interpreter and an empty store: nothing compiled, memoized
or predecoded in the parent can leak into the forked farm workers. The
parent only imports and plans before the workers fork; that is checked.

Prints one JSON document (the last line of stdout) with the raw
timings, the store footprint, the check results and, with ``--trace``,
the per-layer totals of :mod:`layers`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

import checks
from hostclock import timed_reference

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Farm width (worker processes) of every sweep, fixed so numbers from
#: hosts with different core counts stay comparable.
WIDTH = 2
#: All-hit passes after the cold sweep: at least this many, and more
#: until ``--seconds`` have passed since the cold sweep began.
WARM_MIN = 20
#: A traced run makes exactly this many, so its counts are fixed.
WARM_TRACED = 10

#: The paper's machine flavours of Fig. 6 / Tables 3, 4, 6.
TIMING_MACHINES = ("base", "1cyc", "fac16", "fac32")
#: The 6-kernel default slice (int and fp).
TIMING_KERNELS = ("compress", "grep", "xlisp", "alvinn", "spice",
                  "tomcatv")
#: Cells checked against benchmarks/suite_baseline.json.
BASELINE_KERNELS = ("compress", "alvinn")
BASELINE_MACHINES = ("base", "fac32")


def sweep_cells(workload: str):
    from repro.farm.jobs import Cell
    from repro.workloads.suite import BENCHMARKS

    if workload == "sweep-timing":
        return {Cell("sim", name, False, machine)
                for name in TIMING_KERNELS for machine in TIMING_MACHINES}
    if workload == "sweep-analysis":
        return {Cell("analysis", name, software)
                for name in BENCHMARKS for software in (False, True)}
    raise ValueError(f"unknown sweep workload {workload!r}")


def tree_bytes(root: Path) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(root) for name in names)


class Finished:
    """Event sink: when each job of one graph run finished."""

    def __init__(self):
        self.start = time.monotonic()
        self.at: dict[str, float] = {}

    def handle(self, event) -> None:
        if event.kind == "farm.finished":
            self.at[event.job_id] = time.monotonic()

    def cell_latencies(self, graph) -> dict[str, float]:
        """Cell job id -> seconds from the run's start to its result."""
        return {job_id: self.at[job_id] - self.start
                for job_id in graph.cell_jobs.values() if job_id in self.at}


def timed_run(graph, store) -> tuple:
    """One farm run of ``graph``; returns ``(result, start, wall seconds,
    cell latencies)``, ``start`` on the ``time.monotonic()`` clock."""
    from repro.farm import scheduler
    from repro.obs.events import EventBus

    finished = Finished()
    result = scheduler.run_graph(graph, store, jobs=WIDTH,
                                 obs=EventBus([finished]))
    return (result, finished.start, time.monotonic() - finished.start,
            list(finished.cell_latencies(graph).values()))


def store_key(store, graph, job_id):
    from repro.farm.jobs import resolve_key

    return resolve_key(graph.jobs[job_id], store)


def snapshot_bytes(store, graph) -> dict:
    """Job id -> canonical bytes of every cell's stored snapshot."""
    return {job_id: checks.canonical(store.get_json(
                cell.kind, store_key(store, graph, job_id)))
            for cell, job_id in graph.cell_jobs.items()}


def run_checks(check, store, graph, cold_bytes, warm_bytes,
               baseline: dict) -> int:
    """Output checks after the measured phase; returns the number of
    dynamic instructions the sweep captured."""
    from repro.workloads.suite import BENCHMARKS

    instructions = 0
    for spec in graph.jobs.values():
        if spec.kind != "trace":
            continue
        meta = store.get_meta("trace", store_key(store, graph, spec.job_id))
        if meta is None:
            check.add([f"{spec.job_id}: no trace artifact"])
            continue
        instructions += meta["instructions"]
        check.add(checks.check_stdout(
            spec.job_id, meta["stdout"],
            BENCHMARKS[spec.name].expected_output))
    for cell, job_id in sorted(graph.cell_jobs.items()):
        if cell.name not in BASELINE_KERNELS or cell.software:
            continue
        snapshot = json.loads(cold_bytes[job_id])
        if cell.kind == "sim" and cell.machine in BASELINE_MACHINES:
            check.add(checks.check_sim_baseline(
                cell.name, cell.machine, snapshot, baseline))
        elif cell.kind == "analysis":
            check.add(checks.check_analysis_baseline(
                cell.name, snapshot, baseline))
    check.add(checks.check_same_bytes("warm pass", cold_bytes, warm_bytes))
    return instructions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro.farm.api as farm_api
    import repro.workloads.suite as suite
    from repro.experiments.common import MACHINES, MAX_INSTRUCTIONS
    from repro.farm.jobs import plan_jobs
    from repro.farm.store import ArtifactStore

    tracing = None
    if args.trace:
        from layers import LayerTracing

        tracing = LayerTracing()
        tracing.install()
    graph = plan_jobs(sweep_cells(args.workload), MACHINES,
                      max_instructions=MAX_INSTRUCTIONS)
    store = ArtifactStore(args.store)
    out = {"ready_at": time.monotonic()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    check = checks.Checks()
    # cold means cold: the parent has compiled and memoized nothing
    leaked = suite._build_cached.cache_info().currsize + len(farm_api._memo)
    check.add([f"parent holds {leaked} cached build(s)/result(s) "
               "before the workers fork"] if leaked else [])
    if store.root.exists() and any(store.root.iterdir()):
        check.add([f"store {store.root} is not empty"])

    cold, start, out["cold_s"], out["cold_cell_s"] = timed_run(graph, store)
    out["cold_t0"] = start
    out["jobs"] = len(graph)
    out["cells"] = len(graph.cell_jobs)
    out["store_bytes"] = tree_bytes(store.root)
    failed_jobs = [f"{o.job_id}: {o.error}" for o in cold.failed]
    cold_keys = {job_id: o.key for job_id, o in cold.outcomes.items()}
    with tracing.paused() if tracing else contextlib.nullcontext():
        cold_bytes = snapshot_bytes(store, graph) if cold.ok else {}

    passes, warm_jobs = [], 0
    deadline = start + args.seconds
    while (len(passes) < WARM_TRACED if tracing else
           len(passes) < WARM_MIN or time.monotonic() < deadline):
        warm, start, wall, latencies = timed_run(graph, store)
        passes.append((start, wall, timed_reference(), latencies))
        warm_jobs += len(warm.outcomes)
        failed_jobs += [f"warm {o.job_id}: {o.status}"
                        for o in warm.outcomes.values()
                        if o.status != "hit"
                        or o.key != cold_keys.get(o.job_id)]
    # ``[start, wall, reference wall, cell latencies]`` of every pass
    out["warm_passes"] = passes
    if tracing:
        out["layers"] = tracing.report()
        tracing.uninstall()

    baseline = json.loads(
        (ROOT / "benchmarks" / "suite_baseline.json").read_text())
    if cold.ok:
        warm_bytes = snapshot_bytes(store, graph)
        out["instructions"] = run_checks(check, store, graph, cold_bytes,
                                         warm_bytes, baseline)
    out["attempted"] = out["jobs"] + warm_jobs + check.attempted
    out["failed"] = len(failed_jobs) + check.failed
    out["errors"] = failed_jobs + check.errors
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
