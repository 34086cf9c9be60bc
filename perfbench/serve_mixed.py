"""The ``serve-mixed`` workload: closed-loop clients against ``repro serve``.

The seed generates everything the service receives: a pool of MiniC
program variants (array size and constants of :data:`TEMPLATE`), and
the order of the request stream, in which each request is either a
warm resubmission of a pool variant (store reads only) or a fresh
variant (cold: compile, worker fork, capture, timing replay on every
flavour of :data:`MACHINES`, store writes).

The cold share is the repo's own load shape: in
:func:`repro.serve.loadgen.run_load`, which ``benchmarks/test_serve_load.py``
gates on, each tenant sends one fresh variant and then two warm
resubmissions, so one request in three is cold. The mixed stream keeps
that share, one fresh variant in every block of three.

Each client submits one job, follows its SSE stream to the terminal
event, and only then submits the next -- the way ``repro submit
--follow`` callers wait for their reply -- so the loop is closed and
the service sees at most one connection per client. The first client
sends the mixed stream. The second (on hosts with two or more cores)
only resubmits pool variants. That role has no in-repo source: it is
an assumption, kept because its requests show the wait of warm
requests behind fresh ones on the service's single worker, while fresh
variants never queue behind each other, so the cold latencies stay in
one mode. A request's latency runs from the start of its submit to the
arrival of its terminal event.
"""

from __future__ import annotations

import itertools
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from sweep import tree_bytes

#: Array sizes of the generated variants. Every size is used equally
#: often, in a seeded order, so each seed asks for the same amount of
#: work; the seed varies the order and the constants.
SIZES = (64, 96, 128, 160, 192, 256)
#: Pool variants submitted cold first, then resubmitted warm.
POOL = 2 * len(SIZES)
#: Each block of the request stream holds this many requests, of which
#: ``COLDS_PER_BLOCK`` (at a seeded position) are fresh variants: the
#: 1 cold : 2 warm of ``loadgen.run_load`` with its two warm rounds.
BLOCK = 3
COLDS_PER_BLOCK = 1
#: All-hit passes over the pool, made in equal groups before each of
#: the mixed loop's segments. They measure ``warm_sweep_ms``; they are a
#: measuring device, not a claim about traffic.
WARM_PASSES = 32
SEGMENTS = 8
#: Machine flavours each request simulates (Fig. 6 / Tables 3, 4, 6).
MACHINES = ("base", "1cyc", "fac16", "fac32")
#: Seconds to wait for a server to come up, or a request to finish.
TIMEOUT = 60.0

TEMPLATE = """\
/* serve-mixed variant {index} */
int data[{size}];
int acc = 0;

int main() {{
    int i;
    for (i = 0; i < {size}; i++) {{
        data[i] = i * {step} + {bias};
    }}
    for (i = 0; i < {size}; i++) {{
        acc = acc + data[i] * (i % {mod} + 1);
    }}
    print_str("acc=");
    print_int(acc);
    print_char(10);
    return 0;
}}
"""


@dataclass(frozen=True)
class Variant:
    """One generated program; ``index`` makes every variant distinct."""

    index: int
    size: int
    step: int
    bias: int
    mod: int

    @classmethod
    def draw(cls, rng: random.Random, index: int, size: int) -> "Variant":
        return cls(index=index, size=size, step=rng.randint(1, 97),
                   bias=rng.randint(0, 999), mod=rng.randint(2, 8))

    @property
    def name(self) -> str:
        return f"variant-{self.index}"

    def source(self) -> str:
        return TEMPLATE.format(index=self.index, size=self.size,
                               step=self.step, bias=self.bias, mod=self.mod)

    def expected_stdout(self) -> str:
        acc = sum((i * self.step + self.bias) * (i % self.mod + 1)
                  for i in range(self.size))
        return f"acc={acc}\n"

    def submission(self, tenant: str) -> dict:
        from repro.serve.schemas import SERVE_JOB_SCHEMA_VERSION

        return {"schema": SERVE_JOB_SCHEMA_VERSION, "tenant": tenant,
                "name": self.name, "source": self.source(),
                "machines": list(MACHINES)}


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def make_pool(seed: int) -> list[Variant]:
    rng = random.Random(seed)
    sizes = _shuffled(rng, SIZES * (POOL // len(SIZES)))
    return [Variant.draw(rng, index, size)
            for index, size in enumerate(sizes)]


def _cycle(rng: random.Random, items):
    """Endless rounds over ``items``, each round in a new seeded order."""
    while True:
        yield from _shuffled(rng, items)


def mixed_stream(seed: int, pool: list[Variant]):
    """The first client's requests: every block of :data:`BLOCK` holds
    :data:`COLDS_PER_BLOCK` fresh variant at a seeded position; the rest
    resubmit pool variants."""
    rng = random.Random(seed * 7919 + 1)
    warm = _cycle(rng, pool)
    sizes = _cycle(rng, SIZES)
    index = itertools.count(len(pool))
    kinds = ["cold"] * COLDS_PER_BLOCK + ["warm"] * (BLOCK - COLDS_PER_BLOCK)
    while True:
        for kind in _shuffled(rng, kinds):
            if kind == "warm":
                yield kind, next(warm)
            else:
                yield kind, Variant.draw(rng, next(index), next(sizes))


def warm_stream(seed: int, pool: list[Variant]):
    """The second client's requests: warm resubmissions only, which
    queue behind the first client's fresh variants on the service's
    single worker."""
    for variant in _cycle(random.Random(seed * 7919 + 2), pool):
        yield "warm", variant


# ------------------------------------------------------------------ #
# the server process

class Server:
    """``perfbench/server.py`` as a child process on an ephemeral port."""

    def __init__(self, store: Path, log: Path, trace_out: Path | None = None):
        cmd = [sys.executable, str(Path(__file__).with_name("server.py")),
               "--store", str(store)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.log = log
        self.started = time.monotonic()
        with open(log, "w") as handle:
            self.process = subprocess.Popen(cmd, stdout=handle,
                                            stderr=subprocess.STDOUT,
                                            start_new_session=True)
        self.url = None

    def wait_ready(self) -> float:
        """Block until the service answers ``/v1/health``; returns the
        seconds since the process was started."""
        from repro.serve import client

        deadline = self.started + TIMEOUT
        while self.url is None:
            if self.process.poll() is not None or \
                    time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: "
                                   f"{self.log.read_text()[-2000:]}")
            for line in self.log.read_text().splitlines():
                if "listening on " in line:
                    self.url = line.split("listening on ")[1].split()[0]
            time.sleep(0.005)
        status, _ = client.get_health(self.url, timeout=TIMEOUT)
        if status != 200:
            raise RuntimeError(f"server health returned {status}")
        return time.monotonic() - self.started

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()


# ------------------------------------------------------------------ #
# clients

def request(url: str, kind: str, variant: Variant, tenant: str) -> dict:
    """One closed-loop request: submit, then follow the SSE stream to
    the terminal event. Never raises; failures land in ``errors``."""
    from repro.serve import client

    out = {"kind": kind, "variant": variant, "job_id": None,
           "refused": False, "errors": []}
    label = f"{kind} {variant.name}"
    start = out["start"] = time.monotonic()
    try:
        status, record = client.submit(url, variant.submission(tenant),
                                       timeout=TIMEOUT)
        out["submit_s"] = time.monotonic() - start
        if status != 202:
            out["refused"] = status == 429
            out["errors"].append(f"{label}: submit returned {status}")
            return out
        out["job_id"] = record["job_id"]
        entries = client.stream_events(url, record["job_id"],
                                       timeout=TIMEOUT)
        out["latency_s"] = time.monotonic() - start
        out["notify_s"] = time.time() - entries[-1]["ts"] if entries else 0
    except (OSError, ValueError, RuntimeError) as exc:
        out["errors"].append(f"{label}: {type(exc).__name__}: {exc}")
        return out
    out["errors"] += checks.check_event_stream(label, entries)
    if kind == "warm" and entries:
        out["errors"] += checks.check_all_hits(
            label, entries[-1].get("hits", 0),
            entries[-1].get("computed", -1))
    return out


def drive(url: str, streams: list,
          deadline: float | None = None) -> tuple[list[dict], float, float]:
    """One closed-loop client per stream (an iterator of ``(kind,
    variant)``; clients may share one), each running until its stream
    ends or ``deadline`` passes. Returns the results, the
    ``time.monotonic()`` of the first submit, and the wall time from
    there to the last terminal event."""
    results: list[dict] = []
    lock = threading.Lock()

    def client_loop(index: int) -> None:
        while deadline is None or time.monotonic() < deadline:
            with lock:
                item = next(streams[index], None)
            if item is None:
                return
            result = request(url, *item, tenant=f"client-{index}")
            with lock:
                results.append(result)

    start = time.monotonic()
    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, start, time.monotonic() - start


def clients_for_host() -> int:
    """Two clients, but never more connections than cores."""
    return max(1, min(2, os.cpu_count() or 1))


# ------------------------------------------------------------------ #
# one session: boot, traffic, checks

def fetch_records(url: str, results: list[dict]) -> dict:
    """Job id -> queue record (with the result document)."""
    from repro.serve import client

    records = {}
    for result in results:
        if result["job_id"] is not None:
            status, record = client.get_job(url, result["job_id"])
            records[result["job_id"]] = record if status == 200 else {}
    return records


def trace_meta(url: str, variant) -> dict:
    """The served trace artifact's metadata for one variant (captured
    stdout, instruction count), looked up by its content key."""
    from repro.farm.jobs import manifest_key, trace_key
    from repro.serve import client
    from repro.serve.schemas import MAX_SERVE_INSTRUCTIONS

    source = variant.source()
    status, doc = client.request_json(
        url, "GET", f"/v1/artifacts/build/"
        f"{manifest_key(variant.name, False, source)}")
    if status != 200:
        return {}
    key = trace_key(variant.name, False, doc["meta"]["program_crc"],
                    MAX_SERVE_INSTRUCTIONS, source)
    status, doc = client.request_json(url, "GET",
                                      f"/v1/artifacts/trace/{key}")
    return doc["meta"] if status == 200 else {}


def check_served(results: list[dict], records: dict,
                 metas: dict) -> checks.Checks:
    """Checks of every served job -- state ``done``, and results
    byte-equal across every submission of the same variant -- and of
    every variant's captured stdout."""
    check = checks.Checks()
    reference: dict[int, bytes] = {}
    for result in results:
        record = records.get(result["job_id"])
        if record is None:
            continue
        variant = result["variant"]
        label = f"{result['job_id']} ({result['kind']} {variant.name})"
        errors = [] if record.get("state") == "done" else \
            [f"{label}: state {record.get('state')!r}"]
        encoded = checks.canonical(
            (record.get("result") or {}).get("results"))
        reference.setdefault(variant.index, encoded)
        errors += checks.check_same_bytes(
            label, {"results": reference[variant.index]},
            {"results": encoded})
        check.add(errors)
    for variant, meta in metas.values():
        check.add(checks.check_stdout(variant.name, meta.get("stdout"),
                                      variant.expected_stdout()))
    return check


def traffic(url: str, seed: int, pool: list[Variant], clients: int,
            seconds: float, out: dict) -> None:
    """``seconds`` of the mixed loop, cut into :data:`SEGMENTS` equal
    segments with a group of all-hit passes over the pool before each.

    Spreading the passes through the run keeps their median from
    resting on one stretch of host load; each run still sees the same
    sequence of service states, since every segment is the same share
    of the loop."""
    streams = [mixed_stream(seed, pool), warm_stream(seed, pool)][:clients]
    # ``pass_s`` and ``segments`` hold ``(start, wall)`` pairs
    out.update(pass_s=[], passes=[], mixed=[], segments=[])
    for _ in range(SEGMENTS):
        for _ in range(WARM_PASSES // SEGMENTS):
            batch = iter([("warm", v) for v in pool])
            warm, start, wall = drive(url, [batch] * clients)
            out["pass_s"].append((start, wall))
            out["passes"] += warm
        mixed, start, wall = drive(
            url, streams, deadline=time.monotonic() + seconds / SEGMENTS)
        out["mixed"] += mixed
        out["segments"].append((start, wall))


def session(work: Path, seed: int, seconds: float | None,
            trace_out: Path | None = None) -> dict:
    """Boot a server on a fresh store and serve the cold pool batch;
    then, unless ``seconds`` is None, ``seconds`` of :func:`traffic`.
    Returns the timings, the results with their queue records, and the
    check accounting."""
    work.mkdir(parents=True, exist_ok=True)
    store = work / "store"
    server = Server(store, work / "server.log", trace_out)
    clients = clients_for_host()
    out: dict = {}
    try:
        out["setup_t0"] = server.started
        out["setup_s"] = server.wait_ready()
        pool = make_pool(seed)
        cold, out["cold_t0"], out["cold_s"] = drive(
            server.url, [iter([("cold", v) for v in pool])] * clients)
        out["store_bytes"] = tree_bytes(store)
        results = list(cold)
        if seconds is not None:
            traffic(server.url, seed, pool, clients, seconds, out)
            results += out["passes"] + out["mixed"]
        records = fetch_records(server.url, results)
        variants = {r["variant"].index: r["variant"] for r in results}
        metas = {index: (variant, trace_meta(server.url, variant))
                 for index, variant in variants.items()}
    finally:
        server.stop()
    check = check_served(results, records, metas)
    out["attempted"] = len(results) + check.attempted
    out["failed"] = sum(bool(r["errors"]) for r in results) + check.failed
    out["errors"] = [e for r in results for e in r["errors"]] + check.errors
    out["instructions"] = sum(metas[v.index][1].get("instructions", 0)
                              for v in pool)
    out["results"] = results
    out["records"] = records
    return out


def layer_metrics(done: dict) -> dict:
    """The ``serve.*`` per-layer metrics of one :func:`session`."""
    results = [r for r in done["results"] if not r["errors"]]
    records = [done["records"].get(r["job_id"]) or {} for r in results]
    docs = [rec.get("result") or {} for rec in records]

    def median_ms(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) * 1e3 if values else 0.0

    return {
        "serve.submit_ms": median_ms([r.get("submit_s") for r in results]),
        "serve.queue_wait_ms": median_ms(
            [d.get("queue_wait_seconds") for d in docs]),
        "serve.job_ms": median_ms([d.get("elapsed_seconds") for d in docs]),
        "serve.notify_ms": median_ms([r.get("notify_s") for r in results]),
        "serve.refused": sum(r["refused"] for r in done["results"]),
    }
