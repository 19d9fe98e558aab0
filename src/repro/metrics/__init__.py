"""Metric computation and reproducibility verification utilities."""

from repro.metrics.bubbles import gpipe_theory_bubble, pipeline_theory_bubble
from repro.metrics.reproducibility import (
    ReproducibilityReport,
    compare_digests,
    verify_csp_equivalence,
)
from repro.metrics.throughput import normalize_throughput, speedup_table

__all__ = [
    "gpipe_theory_bubble",
    "pipeline_theory_bubble",
    "ReproducibilityReport",
    "compare_digests",
    "verify_csp_equivalence",
    "normalize_throughput",
    "speedup_table",
]
