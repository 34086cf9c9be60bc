"""Self-test of the benchmark's output checks: each must pass on good
output and fail on a perturbed snapshot, a wrong stdout, a broken SSE
stream, a warm request that computed, or a served job that did not end
``done`` with the same result bytes as its variant's other submissions.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from serve_mixed import Variant, check_served  # noqa: E402

BASELINE = json.loads(
    (HERE.parent / "benchmarks" / "suite_baseline.json").read_text())


def _sim_snapshot(name: str, machine: str) -> dict:
    """A sim snapshot equal to the baseline's ``<name>.<machine>.*``."""
    from repro.farm.snapshots import sim_to_snapshot
    from repro.pipeline.result import SimResult

    prefix = f"{name}.{machine}."
    counters = {path[len(prefix):]: entry["count"]
                for path, entry in BASELINE["metrics"].items()
                if path.startswith(prefix) and entry["type"] == "counter"}
    return sim_to_snapshot(SimResult(**counters))


def test_sim_baseline_accepts_equal_snapshot():
    snapshot = _sim_snapshot("compress", "fac32")
    assert checks.check_sim_baseline("compress", "fac32", snapshot,
                                     BASELINE) == []


def test_sim_baseline_rejects_perturbed_counter():
    snapshot = _sim_snapshot("alvinn", "base")
    perturbed = copy.deepcopy(snapshot)
    perturbed["metrics"]["sim.cycles"]["count"] += 1
    errors = checks.check_sim_baseline("alvinn", "base", perturbed,
                                       BASELINE)
    assert errors and "alvinn.base.cycles" in errors[0]


def test_sim_baseline_rejects_wrong_machine():
    snapshot = _sim_snapshot("compress", "base")
    assert checks.check_sim_baseline("compress", "fac32", snapshot,
                                     BASELINE)


def _analysis_snapshot(name: str) -> dict:
    """An analysis snapshot whose prediction rates equal the baseline's
    ``<name>.pred16``/``<name>.pred32`` (all speculated accesses are
    counted as loads)."""
    from repro.analysis.prediction import PredictionStats, TraceAnalysis
    from repro.analysis.refclass import ReferenceProfile
    from repro.farm.snapshots import analysis_to_snapshot

    predictions = {}
    for block_size in (16, 32):
        entry = BASELINE["metrics"][f"{name}.pred{block_size}"]
        predictions[block_size] = PredictionStats(
            block_size=block_size, loads=entry["total"],
            load_failures=entry["total"] - entry["hits"])
    return analysis_to_snapshot(TraceAnalysis(
        profile=ReferenceProfile(), predictions=predictions))


def test_analysis_baseline_accepts_equal_snapshot():
    snapshot = _analysis_snapshot("compress")
    assert checks.check_analysis_baseline("compress", snapshot,
                                          BASELINE) == []


def test_analysis_baseline_rejects_perturbed_failures():
    perturbed = copy.deepcopy(_analysis_snapshot("compress"))
    perturbed["metrics"]["pred.32.load_failures"]["count"] += 1
    errors = checks.check_analysis_baseline("compress", perturbed, BASELINE)
    assert errors and "compress.pred32" in errors[0]


def test_stdout_check():
    assert checks.check_stdout("x", "sig=1\n", "sig=1\n") == []
    assert checks.check_stdout("x", "sig=2\n", "sig=1\n")
    assert checks.check_stdout("x", None, "sig=1\n")


def test_variant_expected_stdout_is_not_trivially_matched():
    variant = Variant(index=0, size=64, step=3, bias=5, mod=4)
    other = Variant(index=1, size=64, step=3, bias=6, mod=4)
    assert variant.expected_stdout() != other.expected_stdout()
    assert checks.check_stdout("v", other.expected_stdout(),
                               variant.expected_stdout())


def test_same_bytes_check():
    cold = {"a": b"1", "b": b"2"}
    assert checks.check_same_bytes("w", cold, dict(cold)) == []
    assert checks.check_same_bytes("w", cold, {"a": b"1", "b": b"3"})
    assert checks.check_same_bytes("w", cold, {"a": b"1"})


def test_event_stream_check():
    good = [{"seq": 0, "event": "serve.job.queued"},
            {"seq": 1, "event": "serve.job.finished", "status": "done"}]
    assert checks.check_event_stream("j", good) == []
    gap = [good[0], {**good[1], "seq": 2}]
    assert checks.check_event_stream("j", gap)
    failed = [good[0], {**good[1], "status": "failed"}]
    assert checks.check_event_stream("j", failed)
    assert checks.check_event_stream("j", good[:1])


def test_all_hits_check():
    assert checks.check_all_hits("w", hits=3, computed=0) == []
    assert checks.check_all_hits("w", hits=2, computed=1)


_JOB_IDS = itertools.count()


def _served(state: str, results) -> tuple[dict, dict]:
    """One served submission of variant 0 and its queue record."""
    variant = Variant(index=0, size=64, step=3, bias=5, mod=4)
    job_id = f"job-{next(_JOB_IDS):06d}"
    return ({"job_id": job_id, "kind": "warm", "variant": variant},
            {job_id: {"state": state, "result": {"results": results}}})


def _check_served(*jobs) -> checks.Checks:
    results, records = [], {}
    for result, record in jobs:
        results.append(result)
        records.update(record)
    variant = results[0]["variant"]
    metas = {variant.index: (variant,
                             {"stdout": variant.expected_stdout()})}
    return check_served(results, records, metas)


def test_served_check_accepts_equal_results():
    check = _check_served(_served("done", {"base": 1}),
                          _served("done", {"base": 1}))
    assert check.failed == 0 and check.attempted == 3


def test_served_check_rejects_mismatched_result_bytes():
    check = _check_served(_served("done", {"base": 1}),
                          _served("done", {"base": 2}))
    assert check.failed == 1 and "differs" in check.errors[0]


def test_served_check_rejects_unfinished_job():
    check = _check_served(_served("done", {"base": 1}),
                          _served("failed", {"base": 1}))
    assert check.failed == 1 and "state 'failed'" in check.errors[0]


def test_served_check_rejects_wrong_variant_stdout():
    result, record = _served("done", {"base": 1})
    variant = result["variant"]
    check = check_served([result], record,
                         {variant.index: (variant, {"stdout": "acc=0\n"})})
    assert check.failed == 1 and "stdout" in check.errors[0]
