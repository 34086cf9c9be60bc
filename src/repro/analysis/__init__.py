"""Trace analyses: reference behaviour (Section 2), prediction rates,
the static FAC-predictability pass (:mod:`repro.analysis.static_fac`),
and the whole-program sanitizer (:mod:`repro.analysis.sanitize`), both
built on the abstract-interpretation framework
(:mod:`repro.analysis.absint`)."""

import importlib

from repro.analysis.refclass import (
    OFFSET_BUCKETS,
    ReferenceProfile,
    classify_base,
    offset_bucket,
)
from repro.analysis.prediction import (
    PredictionStats,
    TraceAnalysis,
    analyze_program,
    analyze_trace,
)
# The static analyzer and the sanitizer, with the abstract-interpretation
# framework under them, load on first use: farm parents and sim workers
# import this package for the trace analyses alone.
_LAZY = {
    "StaticAnalysis": "repro.analysis.static_fac",
    "Verdict": "repro.analysis.static_fac",
    "analyze_static": "repro.analysis.static_fac",
    "check_soundness": "repro.analysis.static_fac",
    "lint_program": "repro.analysis.static_fac",
    "SanitizeReport": "repro.analysis.sanitize",
    "convention_clobbers": "repro.analysis.sanitize",
    "sanitize_program": "repro.analysis.sanitize",
}

__all__ = [
    "OFFSET_BUCKETS",
    "ReferenceProfile",
    "classify_base",
    "offset_bucket",
    "PredictionStats",
    "TraceAnalysis",
    "analyze_program",
    "analyze_trace",
    "StaticAnalysis",
    "Verdict",
    "analyze_static",
    "check_soundness",
    "lint_program",
    "SanitizeReport",
    "convention_clobbers",
    "sanitize_program",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
