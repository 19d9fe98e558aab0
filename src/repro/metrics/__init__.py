"""Metric computation and reproducibility verification utilities."""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.metrics.bubbles": ("gpipe_theory_bubble", "pipeline_theory_bubble"),
    "repro.metrics.reproducibility": (
        "ReproducibilityReport", "compare_digests", "verify_csp_equivalence",
    ),
    "repro.metrics.throughput": ("normalize_throughput", "speedup_table"),
})
