"""Output checks. Each returns a list of error strings (empty = pass).

The modelled machine is not validated against hardware, so simulated
statistics are compared for equality, never scored: a change meant only
to make the program faster must leave every one of them identical.
"""

from __future__ import annotations

import json


class Checks:
    """Counts attempted and failed checks; keeps the error messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors


def check_stdout(label: str, actual: str, expected: str) -> list[str]:
    """A program's captured stdout must equal its expected output."""
    if actual == expected:
        return []
    return [f"{label}: stdout {actual!r} != expected {expected!r}"]


def _compare_metrics(label: str, actual: dict, expected: dict) -> list[str]:
    errors = []
    for path in sorted(set(actual) | set(expected)):
        if actual.get(path) != expected.get(path):
            errors.append(f"{label}: {path} = {actual.get(path)} "
                          f"!= baseline {expected.get(path)}")
    return errors


def _baseline_section(baseline: dict, prefix: str) -> dict:
    return {path: entry for path, entry in baseline["metrics"].items()
            if path.startswith(prefix)}


def check_sim_baseline(name: str, machine: str, snapshot: dict,
                       baseline: dict) -> list[str]:
    """A ``sim`` cell's snapshot against the committed suite baseline
    (``<name>.<machine>.*`` entries of ``repro.metrics/1``)."""
    from repro.farm.snapshots import sim_from_snapshot
    from repro.obs.metrics import MetricsRegistry

    prefix = f"{name}.{machine}."
    registry = MetricsRegistry()
    sim_from_snapshot(snapshot).to_registry(registry, prefix=prefix[:-1])
    return _compare_metrics(f"sim {name}/{machine}",
                            registry.snapshot()["metrics"],
                            _baseline_section(baseline, prefix))


def check_analysis_baseline(name: str, snapshot: dict,
                            baseline: dict) -> list[str]:
    """An ``analysis`` cell's prediction rates against the committed
    suite baseline (``<name>.pred<block>`` ratio entries)."""
    from repro.farm.snapshots import analysis_from_snapshot

    analysis = analysis_from_snapshot(snapshot)
    actual = {}
    for block_size, stats in analysis.predictions.items():
        speculated = stats.loads + stats.stores
        failures = stats.load_failures + stats.store_failures
        actual[f"{name}.pred{block_size}"] = {
            "hits": speculated - failures, "total": speculated,
            "type": "ratio"}
    return _compare_metrics(f"analysis {name}", actual,
                            _baseline_section(baseline, f"{name}.pred"))


def check_same_bytes(label: str, cold: dict, warm: dict) -> list[str]:
    """Every result read back warm must be byte-equal to the cold one."""
    errors = []
    for key in sorted(set(cold) | set(warm)):
        if cold.get(key) != warm.get(key):
            errors.append(f"{label}: {key} differs between cold and warm")
    return errors


def check_event_stream(label: str, entries: list[dict]) -> list[str]:
    """A served job's SSE stream: contiguous ``seq`` from 0, ending in a
    terminal ``serve.job.finished`` event with status ``done``."""
    errors = []
    seqs = [entry.get("seq") for entry in entries]
    if seqs != list(range(len(entries))):
        errors.append(f"{label}: SSE seq not contiguous: {seqs}")
    last = entries[-1] if entries else {}
    if last.get("event") != "serve.job.finished":
        errors.append(f"{label}: stream ended without a terminal event")
    elif last.get("status") != "done":
        errors.append(f"{label}: job ended {last.get('status')!r}")
    return errors


def check_all_hits(label: str, hits: int, computed: int) -> list[str]:
    """A warm request must be served from the store alone."""
    if computed == 0 and hits > 0:
        return []
    return [f"{label}: warm request computed {computed} job(s), "
            f"{hits} hit(s)"]


def canonical(doc) -> bytes:
    """Deterministic encoding of a JSON document, for byte comparison."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
