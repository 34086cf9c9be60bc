"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):

* ``sweep-timing``   -- cold farm sweep of ``sim`` cells, 6 kernels x
                        ``base, 1cyc, fac16, fac32``, then all-hit passes
* ``sweep-analysis`` -- cold farm sweep of ``analysis`` cells, 19
                        kernels x software support off/on, then passes
* ``serve-mixed``    -- closed-loop clients against ``repro serve``:
                        warm resubmissions and fresh program variants

With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` it prints the per-layer metrics of a separate traced run
(plus ``trace.overhead_s``, the median traced-minus-untraced wall of
the same cold phase over alternating pairs). Either way it runs every
output check. The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``. The exit code is nonzero when
any check or request failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import HostClock, paired

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for stores and logs, inside the checkout (gitignored).
WORK = ROOT / ".perfbench"

WORKLOADS = ("sweep-timing", "sweep-analysis", "serve-mixed")
#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Seconds one sweep process may take beyond ``--seconds`` before it
#: is killed and the run counted failed.
CHILD_GRACE = 120.0
#: Untraced/traced pairs of the cold phase behind ``trace.overhead_s``.
OVERHEAD_PAIRS = 2
#: A tail needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: ... and is never a higher percentile than this, so that a run with
#: more samples estimates the same percentile, not a more extreme one.
TAIL_CAP = 0.98

SERVE_LAYER_METRICS = ("serve.submit_ms", "serve.queue_wait_ms",
                       "serve.job_ms", "serve.notify_ms", "serve.refused")


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile up to
    :data:`TAIL_CAP` with at least :data:`TAIL_BEYOND` samples beyond it
    -- the (``TAIL_BEYOND`` + 1)th largest sample, when there are fewer
    than ``TAIL_BEYOND / (1 - TAIL_CAP)`` -- or the median when there
    are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return 0.5, statistics.median(ordered)
    rank = min(n - TAIL_BEYOND, round(TAIL_CAP * n))
    return rank / n, ordered[rank - 1]


def pass_floor_ms(walls: list[float]) -> float:
    """``warm_sweep_ms``: the 10th percentile of the all-hit pass walls.

    Not the median: on a shared host, other tenants slow the CPU for
    seconds at a time, and the median of one run's passes moves with
    how much of its window they took (IQR/median 0.3 over ten 12-s
    windows on a 2-core VM, against 0.06 for the 10th percentile).
    Interference only adds time, so the fast end tracks the program's
    own cost -- the reason ``benchmarks/test_serve_load.py`` compares
    minimums over rounds."""
    return statistics.quantiles(walls, n=10)[0] * 1e3


def latency_metrics(prefix: str, seconds: list[float], notes: dict,
                    out: dict) -> None:
    """``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` of ``seconds``."""
    fraction, value = tail(seconds)
    out[f"{prefix}_p50_ms"] = statistics.median(seconds) * 1e3
    out[f"{prefix}_tail_ms"] = value * 1e3
    notes[f"{prefix}_p50_ms"] = f"median of {len(seconds)} samples"
    notes[f"{prefix}_tail_ms"] = (f"p{fraction * 100:.1f} of "
                                  f"{len(seconds)} samples")


class ChildFailed(RuntimeError):
    """A helper process timed out or exited nonzero."""


def run_child(cmd: list[str], timeout: float) -> dict:
    """Run a helper in its own process group; returns its last stdout
    line as JSON. On timeout the whole group (farm workers included)
    is killed."""
    process = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise ChildFailed(f"{Path(cmd[1]).name} killed after "
                          f"{timeout:.0f} s") from None
    if process.returncode != 0:
        raise ChildFailed(f"{Path(cmd[1]).name} exited "
                          f"{process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def overhead(untraced: list[float], traced: list[float], phase: str,
             notes: dict) -> float:
    """``trace.overhead_s``: the median traced-minus-untraced difference
    over pairs of the same phase, run alternately. It is marked
    unresolved when smaller than the spread of the untraced walls."""
    value = statistics.median(t - u for u, t in zip(untraced, traced))
    noise = max(untraced) - min(untraced)
    notes["trace.overhead_s"] = (f"median of {len(traced)} paired "
                                 f"differences, traced - untraced {phase}")
    if abs(value) < noise:
        notes["trace.overhead_s"] += (f"; unresolved, below the {noise:.3f} "
                                      "s spread of the untraced walls")
    return value


# ------------------------------------------------------------------ #
# sweeps

def sweep_child(workload: str, store: Path, seconds: float,
                trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", workload,
           "--store", str(store), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        doc = run_child(cmd, timeout=seconds + CHILD_GRACE)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    doc["started"] = started
    return doc


def run_sweep(workload: str, seconds: float, clock: HostClock | None,
              work: Path) -> tuple[dict, dict, dict]:
    """Returns ``(metrics, notes, accounting)``; traced when ``clock``
    is None."""
    trace = clock is None
    notes = {"seed": "sweeps run the paper's fixed kernels; "
                     "the seed does not change them"}
    if trace:
        untraced, traced = [], []
        for index in range(OVERHEAD_PAIRS):
            untraced.append(sweep_child(workload, work / f"untraced{index}",
                                        0))
            traced.append(sweep_child(workload, work / f"traced{index}",
                                      seconds, trace=True))
        metrics = dict(traced[-1]["layers"])
        metrics.update({name: 0.0 for name in SERVE_LAYER_METRICS})
        metrics["trace.overhead_s"] = overhead(
            [d["cold_s"] for d in untraced], [d["cold_s"] for d in traced],
            "cold sweep", notes)
        docs = untraced + traced
    else:
        def setup(doc):
            return clock.scaled(doc["ready_at"] - doc["started"],
                                doc["started"], doc["ready_at"])

        def setup_only(index):
            return setup(sweep_child(workload, work / f"setup{index}",
                                     seconds, setup_only=True))

        # set-ups before and after the measured sweep, so their median
        # does not rest on one stretch of host load
        setups = [setup_only(i) for i in range(SETUP_REPEATS // 2)]
        doc = sweep_child(workload, work / "cold", seconds)
        setups.append(setup(doc))
        setups += [setup_only(i) for i in range(SETUP_REPEATS // 2,
                                                 SETUP_REPEATS - 1)]
        cold_scale = clock.scale(doc["cold_t0"],
                                 doc["cold_t0"] + doc["cold_s"])
        cold_s = doc["cold_s"] * cold_scale
        # each pass is scaled by the references run between passes in
        # the same process (hostclock.paired)
        pass_scale = paired([ref for _, _, ref, _ in doc["warm_passes"]])
        raw_passes = [wall for _, wall, _, _ in doc["warm_passes"]]
        passes = [wall * scale for wall, scale in zip(raw_passes, pass_scale)]
        metrics = {
            "setup_s": statistics.median(setups),
            "cold_sweep_s": cold_s,
            "warm_sweep_ms": pass_floor_ms(passes),
            "store_bytes_per_instr":
                doc["store_bytes"] / max(1, doc.get("instructions", 0)),
            "served_jobs_per_s": doc["cells"] / cold_s,
        }
        notes["setup_s"] = f"median of {len(setups)} set-ups"
        notes["cold_sweep_s"] = (f"{doc['cold_s']:.3f} s wall x host "
                                 f"scale {cold_scale:.3f}")
        notes["warm_sweep_ms"] = (f"p10 of {len(passes)} all-hit passes of "
                                  f"{doc['jobs']} jobs; raw wall p10 "
                                  f"{pass_floor_ms(raw_passes):.3f} ms")
        notes["served_jobs_per_s"] = (f"derived: {doc['cells']} cells / "
                                      "cold_sweep_s")
        latency_metrics("cold", [s * cold_scale for s in doc["cold_cell_s"]],
                        notes, metrics)
        latency_metrics("warm", [s * scale for (*_, cells), scale in
                                 zip(doc["warm_passes"], pass_scale)
                                 for s in cells], notes, metrics)
        notes["cold_p50_ms"] += " (cold sweep start to cell result)"
        notes["warm_p50_ms"] += (" (pass start to cell result, every cell "
                                 "of every pass)")
        docs = [doc]
    accounting = {
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "errors": [e for d in docs for e in d["errors"]],
    }
    return metrics, notes, accounting


# ------------------------------------------------------------------ #
# serve

def run_serve(seed: int, seconds: float, clock: HostClock | None,
              work: Path) -> tuple[dict, dict, dict]:
    """Returns ``(metrics, notes, accounting)``; traced when ``clock``
    is None."""
    import serve_mixed as sm

    trace = clock is None

    notes = {"seed": f"seed {seed} generates the program variants and "
                     "the warm/cold order"}
    if trace:
        # alternating cold-only sessions, the last traced one followed by
        # the traffic whose layers are reported
        untraced, traced = [], []
        for index in range(OVERHEAD_PAIRS):
            last = index == OVERHEAD_PAIRS - 1
            untraced.append(sm.session(work / f"untraced{index}", seed, None))
            traced.append(sm.session(
                work / f"traced{index}", seed, seconds if last else None,
                trace_out=work / f"layers{index}.json"))
        session = traced[-1]
        metrics = json.loads(
            (work / f"layers{OVERHEAD_PAIRS - 1}.json").read_text())
        metrics.update(sm.layer_metrics(session))
        metrics["trace.overhead_s"] = overhead(
            [s["cold_s"] for s in untraced], [s["cold_s"] for s in traced],
            "cold pool batch", notes)
        sessions = untraced + traced
    else:
        def scaled(start, wall):
            return clock.scaled(wall, start, start + wall)

        def boot(index):
            server = sm.Server(work / f"setup{index}",
                               work / f"setup{index}.log")
            try:
                return scaled(server.started, server.wait_ready())
            finally:
                server.stop()

        setups = [boot(i) for i in range(SETUP_REPEATS // 2)]
        session = sm.session(work / "run", seed, seconds)
        setups.append(scaled(session["setup_t0"], session["setup_s"]))
        setups += [boot(i) for i in range(SETUP_REPEATS // 2,
                                          SETUP_REPEATS - 1)]
        mixed = [r for r in session["mixed"] if not r["errors"]]
        cold_s = scaled(session["cold_t0"], session["cold_s"])
        loop_s = sum(scaled(*segment) for segment in session["segments"])
        passes = [scaled(*p) for p in session["pass_s"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "cold_sweep_s": cold_s,
            "warm_sweep_ms": pass_floor_ms(passes),
            "store_bytes_per_instr":
                session["store_bytes"] / max(1, session["instructions"]),
            "served_jobs_per_s": len(mixed) / loop_s,
        }
        notes["setup_s"] = f"median of {len(setups)} server boots"
        notes["cold_sweep_s"] = (f"{sm.POOL} fresh variants served from an "
                                 f"empty store; {session['cold_s']:.3f} s "
                                 "wall")
        notes["warm_sweep_ms"] = (f"p10 of {len(passes)} all-hit passes "
                                  f"over {sm.POOL} variants")
        notes["served_jobs_per_s"] = (
            f"{len(mixed)} requests in {loop_s:.1f} s, "
            f"{sm.clients_for_host()} closed-loop clients")
        latency_metrics("cold", [scaled(r["start"], r["latency_s"])
                                 for r in mixed if r["kind"] == "cold"],
                        notes, metrics)
        # every resubmission served from the store: the all-hit passes
        # and the mixed loop's warm requests
        latency_metrics("warm", [scaled(r["start"], r["latency_s"]) for r in
                                 session["passes"] + session["mixed"]
                                 if r["kind"] == "warm" and not r["errors"]],
                        notes, metrics)
        sessions = [session]
    accounting = {
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "errors": [e for s in sessions for e in s["errors"]],
    }
    return metrics, notes, accounting


# ------------------------------------------------------------------ #

def peak_rss_mb() -> float:
    """Peak RSS over this process and every child it waited for (farm
    workers and servers included: Linux folds reaped grandchildren into
    their parent's child usage)."""
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this
    kind of run (``per_layer`` when traced, else ``end_to_end``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or \
            not (ROOT / "benchmarks" / "suite_baseline.json").is_file() or \
            not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    units = declared_metrics(bool(args.trace))
    try:
        # the traced run reports raw host time and needs no host clock
        with (contextlib.nullcontext() if args.trace else
              HostClock(work / "hostclock.txt")) as clock:
            if args.workload == "serve-mixed":
                metrics, notes, accounting = run_serve(
                    args.seed, args.seconds, clock, work)
            else:
                metrics, notes, accounting = run_sweep(
                    args.workload, args.seconds, clock, work)
    except ChildFailed as exc:
        # a hung or crashed helper is a failed run, not a crash
        metrics, notes = {}, {"seed": f"seed {args.seed}"}
        accounting = {"attempted": 1, "failed": 1, "errors": [str(exc)]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace and metrics:
        metrics["peak_rss_mb"] = peak_rss_mb()
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ "
                           f"from BENCHMARK.json {sorted(units)}")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name in sorted(metrics):
        note = notes.get(name, "")
        print(f"  {name:28s} {metrics[name]:16.6g} {units[name]:8s} {note}")
    attempted, failed = accounting["attempted"], accounting["failed"]
    print(f"  failed_frac {failed}/{attempted} = "
          f"{failed / max(1, attempted):.6f}")
    print(f"  {notes['seed']}")
    for error in accounting["errors"]:
        print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
