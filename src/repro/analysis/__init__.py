"""Trace analyses: reference behaviour (Section 2), prediction rates,
the static FAC-predictability pass (:mod:`repro.analysis.static_fac`),
and the whole-program sanitizer (:mod:`repro.analysis.sanitize`), both
built on the abstract-interpretation framework
(:mod:`repro.analysis.absint`)."""

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
from repro.analysis.static_fac import (
    StaticAnalysis,
    Verdict,
    analyze_static,
    check_soundness,
    lint_program,
)
from repro.analysis.sanitize import (
    SanitizeReport,
    convention_clobbers,
    sanitize_program,
)

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
