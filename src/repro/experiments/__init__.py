"""Experiment runners: one module per paper table/figure.

Every runner exposes ``run(scale) -> rows`` plus a ``format_text(rows)``
renderer, and is driven both by the benchmark suite (``benchmarks/``) and
the CLI (``python -m repro <experiment>``).  ``ExperimentScale`` shrinks
stream lengths / GPU counts for CI while keeping the full-paper settings
one flag away.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.experiments.common": ("ExperimentScale", "run_system"),
})
