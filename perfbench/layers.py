"""Per-layer host-time tracing, applied from outside the program.

:class:`LayerTracing` replaces the public entry point of each pipeline
layer with a wrapper that records one span (layer name, start, end,
parent) around the call:

=============  ===================================================
layer          wrapped public call
=============  ===================================================
compiler       ``repro.compiler.compile_and_link``
predecode      ``Program.predecoded``
capture        ``repro.cpu.tracefile.record_trace``
decode         ``repro.cpu.coltrace.decode_tracefile`` and
               ``columns_from_bytes``
analysis       ``repro.analysis.batch.analyze_trace_columns``
timing         ``repro.cpu.tracefile.simulate_trace``
store          ``ArtifactStore`` get/put family
scheduler      ``repro.farm.scheduler.run_graph``
=============  ===================================================

Farm workers are forked, so they inherit the wrappers. Inside a worker
the spans go to the tracker the scheduler already gives every job
(``store.tracer``); the scheduler ships those back to the parent and
adopts them under the job span, and the ``run_graph`` wrapper collects
them when the graph finishes. Spans recorded in the tracing process
itself go to an in-memory :class:`Recorder`. Nothing is written until
:meth:`LayerTracing.report` is called at the end of the run.

A layer's *self* time is its span's duration minus the time covered by
the layer spans nested inside it (capture contains predecode, for
example), so the layer busy times add up without double counting.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from pathlib import Path

LAYER_CAT = "layer"

#: Layers whose self time is reported as ``<layer>.busy_s``.
BUSY_LAYERS = ("compiler", "predecode", "capture", "decode", "analysis",
               "timing")


class Recorder:
    """Thread-safe, in-memory span list with a per-thread parent stack.

    Exposes the part of :class:`repro.obs.spans.SpanTracker` the
    wrappers use (``span`` and ``annotate``), so a wrapper records the
    same way whichever of the two is active.
    """

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: dict[int, dict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, cat: str = LAYER_CAT,
             attrs: dict | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        record = {"span_id": span_id,
                  "parent_id": stack[-1] if stack else None,
                  "name": name, "cat": cat, "t0": self.clock(), "t1": None,
                  "attrs": dict(attrs or {})}
        self.spans[span_id] = record
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            record["t1"] = self.clock()

    def annotate(self, span_id: int, attrs: dict) -> None:
        self.spans[span_id]["attrs"].update(attrs)

    def export(self) -> list[dict]:
        return [self.spans[sid] for sid in sorted(self.spans)]


def layer_records(records: list[dict]) -> list[dict]:
    """The layer spans of a span export, each with ``layer_parent``: the
    id of its nearest enclosing *layer* span (skipping job, execute and
    the store's own spans), or None."""
    by_id = {r["span_id"]: r for r in records}
    out = []
    for record in records:
        if record["cat"] != LAYER_CAT or record["t1"] is None:
            continue
        parent = by_id.get(record["parent_id"])
        while parent is not None and parent["cat"] != LAYER_CAT:
            parent = by_id.get(parent["parent_id"])
        out.append({**record,
                    "layer_parent": parent["span_id"] if parent else None})
    return out


def self_times(records: list[dict]) -> dict[int, float]:
    """Span id -> self time, for records from :func:`layer_records`
    (ids must be unique within ``records``)."""
    child_time: dict[int, float] = {}
    for record in records:
        if record["layer_parent"] is not None:
            child_time[record["layer_parent"]] = (
                child_time.get(record["layer_parent"], 0.0)
                + record["t1"] - record["t0"])
    return {r["span_id"]: max(0.0, r["t1"] - r["t0"]
                              - child_time.get(r["span_id"], 0.0))
            for r in records}


def _payload_bytes(directory) -> int:
    try:
        return sum(f.stat().st_size for f in Path(directory).iterdir()
                   if f.is_file())
    except OSError:
        return 0


class LayerTracing:
    """Installs the layer wrappers in this process and aggregates spans.

    Create one per process, call :meth:`install` before any farm worker
    forks, and :meth:`report` at the end of the run.
    """

    def __init__(self):
        self.recorder = Recorder()
        #: worker-side layer spans of each finished graph, one list per
        #: graph (span ids are unique within a graph's tracker only)
        self.graph_spans: list[list[dict]] = []
        self.graphs: list[dict] = []
        self.spawns = 0
        self._worker_tracker = None
        self._paused = False
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ #
    # recording

    def _active(self):
        """Inside a farm worker's job: the job's tracker (shipped back
        by the scheduler); otherwise this process's recorder."""
        return self._worker_tracker or self.recorder

    def _layer(self, name: str, annotate=None):
        """Decorator factory: record ``name`` around each call;
        ``annotate(result, args, kwargs)`` adds counts to the span."""
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._paused:
                    return fn(*args, **kwargs)
                tracker = self._active()
                with tracker.span(name, cat=LAYER_CAT) as span_id:
                    result = fn(*args, **kwargs)
                    if annotate is not None:
                        tracker.annotate(span_id,
                                         annotate(result, args, kwargs))
                    return result
            return wrapper
        return wrap

    def _store_op(self, op: str, fn):
        """Store wrapper: only the outermost store call of a thread is a
        span (``get_json`` calls ``get_meta``; ``put_json`` calls
        ``put``), so every get/put is counted once."""
        @functools.wraps(fn)
        def wrapper(store, kind, key, *args, **kwargs):
            if self._paused or getattr(self._local, "in_store", False):
                return fn(store, kind, key, *args, **kwargs)
            self._local.in_store = True
            tracker = self._active()
            try:
                with tracker.span("store", cat=LAYER_CAT) as span_id:
                    existed = op == "put" and store.has(kind, key)
                    result = fn(store, kind, key, *args, **kwargs)
                    attrs = {"op": op, "kind": kind}
                    if op == "get":
                        attrs["hit"] = result not in (None, False)
                    else:
                        attrs["bytes"] = 0 if existed \
                            else _payload_bytes(result)
                    tracker.annotate(span_id, attrs)
                    return result
            finally:
                self._local.in_store = False
        return wrapper

    @contextmanager
    def paused(self):
        """Run the benchmark's own reads (output checks) unrecorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # ------------------------------------------------------------ #
    # installation

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import multiprocessing.process

        import repro.analysis.batch as batch
        import repro.compiler as compiler
        import repro.cpu.coltrace as coltrace
        import repro.cpu.tracefile as tracefile
        import repro.farm as farm
        import repro.farm.scheduler as scheduler
        import repro.serve.worker as serve_worker
        import repro.workloads.suite as suite
        from repro.farm.store import ArtifactStore
        from repro.isa.program import Program

        compile_wrapper = self._layer("compiler")(compiler.compile_and_link)
        self._patch(compiler, "compile_and_link", compile_wrapper)
        self._patch(suite, "compile_and_link", compile_wrapper)
        self._patch(Program, "predecoded",
                    self._layer("predecode")(Program.predecoded))

        def capture_counts(count, args, kwargs):
            path = args[1] if len(args) > 1 else kwargs["path"]
            try:
                size = Path(path).stat().st_size
            except OSError:
                size = 0
            return {"instr": count, "bytes": size}

        self._patch(tracefile, "record_trace", self._layer(
            "capture", capture_counts)(tracefile.record_trace))
        self._patch(tracefile, "simulate_trace", self._layer(
            "timing", lambda r, a, k: {"instr": r.instructions,
                                       "cycles": r.cycles})(
            tracefile.simulate_trace))
        for name in ("decode_tracefile", "columns_from_bytes"):
            self._patch(coltrace, name, self._layer(
                "decode", lambda cols, a, k: {"records": cols.count})(
                getattr(coltrace, name)))
        self._patch(batch, "analyze_trace_columns", self._layer(
            "analysis", lambda r, a, k: {"records": a[1].count})(
            batch.analyze_trace_columns))

        for method in ("get_meta", "get_json", "get_bytes", "has",
                       "payload_path"):
            self._patch(ArtifactStore, method,
                        self._store_op("get", getattr(ArtifactStore, method)))
        for method in ("put", "put_json"):
            self._patch(ArtifactStore, method,
                        self._store_op("put", getattr(ArtifactStore, method)))

        original_execute = scheduler.execute_job

        @functools.wraps(original_execute)
        def execute_job(spec, store):
            # runs in a forked worker: record into the job's tracker
            self._worker_tracker = store.tracer
            try:
                return original_execute(spec, store)
            finally:
                self._worker_tracker = None

        self._patch(scheduler, "execute_job", execute_job)

        run_graph = self._traced_run_graph(scheduler.run_graph)
        for module in (scheduler, farm, serve_worker):
            self._patch(module, "run_graph", run_graph)

        original_start = multiprocessing.process.BaseProcess.start

        @functools.wraps(original_start)
        def start(process):
            self.spawns += 1
            return original_start(process)

        self._patch(multiprocessing.process.BaseProcess, "start", start)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _traced_run_graph(self, original):
        from repro.obs.spans import SpanTracker

        @functools.wraps(original)
        def run_graph(graph, store, jobs=1, timeout=None, retries=1,
                      obs=None, tracker=None, heartbeat_path=None):
            tracker = tracker if tracker is not None else SpanTracker()
            t0 = time.monotonic()
            result = original(graph, store, jobs=jobs, timeout=timeout,
                              retries=retries, obs=obs, tracker=tracker,
                              heartbeat_path=heartbeat_path)
            t1 = time.monotonic()
            outcomes = list(result.outcomes.values())
            self.graphs.append({
                "t0": t0, "t1": t1, "width": max(1, jobs),
                "jobs": len(outcomes),
                "computed": result.computed,
                "failed": len(result.failed),
                "retries": sum(max(0, o.attempts - 1) for o in outcomes),
                "job_busy_s": sum(o.wall for o in outcomes
                                  if o.status != "hit"),
            })
            self.graph_spans.append(layer_records(tracker.export()))
            return result
        return run_graph

    # ------------------------------------------------------------ #
    # aggregation

    def report(self) -> dict:
        """Plain-JSON per-layer totals of everything traced so far."""
        spans = []
        for records in self.graph_spans:
            times = self_times(records)
            spans += [{**r, "self": times[r["span_id"]], "worker": True}
                      for r in records]
        local = layer_records(self.recorder.export())
        times = self_times(local)
        spans += [{**r, "self": times[r["span_id"]], "worker": False}
                  for r in local]
        return summarize(spans, self.graphs, self.spawns)


def _sum(spans, layer, attr=None) -> float:
    return sum((s["attrs"].get(attr, 0) if attr else s["self"])
               for s in spans if s["name"] == layer)


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def summarize(spans: list[dict], graphs: list[dict], spawns: int) -> dict:
    """Layer metrics from self-timed layer spans and graph summaries."""
    out: dict[str, float] = {}
    for layer in BUSY_LAYERS:
        out[f"{layer}.busy_s"] = _sum(spans, layer)
    out["compiler.calls"] = sum(1 for s in spans if s["name"] == "compiler")
    out["predecode.calls"] = sum(1 for s in spans
                                 if s["name"] == "predecode")
    out["capture.instr"] = _sum(spans, "capture", "instr")
    out["capture.instr_per_s"] = _rate(out["capture.instr"],
                                       out["capture.busy_s"])
    out["capture.bytes_per_instr"] = (
        _sum(spans, "capture", "bytes") / out["capture.instr"]
        if out["capture.instr"] else 0.0)
    out["decode.records"] = _sum(spans, "decode", "records")
    out["decode.records_per_s"] = _rate(out["decode.records"],
                                        out["decode.busy_s"])
    out["analysis.records"] = _sum(spans, "analysis", "records")
    out["analysis.records_per_s"] = _rate(out["analysis.records"],
                                          out["analysis.busy_s"])
    out["timing.instr"] = _sum(spans, "timing", "instr")
    out["timing.sim_cycles"] = _sum(spans, "timing", "cycles")
    out["timing.instr_per_s"] = _rate(out["timing.instr"],
                                      out["timing.busy_s"])

    store = [s for s in spans if s["name"] == "store"]
    gets = [s for s in store if s["attrs"].get("op") == "get"]
    puts = [s for s in store if s["attrs"].get("op") == "put"]
    out["store.gets"] = len(gets)
    out["store.get_s"] = sum(s["self"] for s in gets)
    out["store.hits"] = sum(1 for s in gets if s["attrs"].get("hit"))
    out["store.hit_ratio"] = out["store.hits"] / len(gets) if gets else 0.0
    out["store.puts"] = len(puts)
    out["store.put_s"] = sum(s["self"] for s in puts)
    out["store.bytes_written"] = sum(s["attrs"].get("bytes", 0)
                                     for s in puts)
    for kind in ("trace", "coltrace", "analysis", "sim"):
        out[f"store.bytes.{kind}"] = sum(
            s["attrs"].get("bytes", 0) for s in puts
            if s["attrs"].get("kind") == kind)

    capacity = sum((g["t1"] - g["t0"]) * g["width"] for g in graphs)
    in_graphs = [s for s in spans if s["worker"] or any(
        g["t0"] <= s["t0"] <= g["t1"] for g in graphs)]
    out["scheduler.jobs"] = sum(g["jobs"] for g in graphs)
    out["scheduler.computed"] = sum(g["computed"] for g in graphs)
    out["scheduler.failed"] = sum(g["failed"] for g in graphs)
    out["scheduler.retries"] = sum(g["retries"] for g in graphs)
    out["scheduler.spawns"] = spawns
    out["scheduler.job_busy_s"] = sum(g["job_busy_s"] for g in graphs)
    out["scheduler.utilization"] = _rate(out["scheduler.job_busy_s"],
                                         capacity)
    out["scheduler.unattributed_s"] = capacity - sum(
        s["self"] for s in in_graphs)
    return out
