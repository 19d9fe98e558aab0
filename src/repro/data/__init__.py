"""Deterministic synthetic datasets.

The paper trains on WNMT (translation) and ImageNet; neither is available
offline, and the scheduler/reproducibility claims only require that each
subnet's batch is a deterministic function of (seed, subnet sequence ID).
These generators produce domain-flavoured feature batches with learnable
structure, so training losses genuinely decrease and search scores can
rank subnets.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.data.synthetic": ("SyntheticTaskData",),
    "repro.data.vocab": ("Vocabulary", "synthetic_vocabulary"),
})
