"""Metric computation: normalised throughput and the paper's Table 3
reproducibility matrix."""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.metrics.reproducibility": ("ReproducibilityReport",),
    "repro.metrics.throughput": ("normalize_throughput",),
})
