"""Metric computation: pipeline bubble theory, normalised throughput and
the paper's Table 3 reproducibility matrix."""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.metrics.bubbles": ("gpipe_theory_bubble", "pipeline_theory_bubble"),
    "repro.metrics.reproducibility": ("ReproducibilityReport",),
    "repro.metrics.throughput": ("normalize_throughput", "speedup_table"),
})
