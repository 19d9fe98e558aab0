"""The NAS layer: exploration algorithms, search, and the high-level
trainer API that ties supernet training and architecture search together
(the role Retiarii plays in front of NASPipe in the paper)."""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.nas.evaluator": ("SubnetEvaluator", "proxy_bleu", "top_k_accuracy"),
    "repro.nas.evolution": ("EvolutionSearch", "SearchOutcome"),
    "repro.nas.random_search": ("RandomSearch",),
    "repro.nas.trainer": ("SupernetTrainer", "TrainingRun"),
    "repro.nas.hybrid": ("HybridSupernet", "hybrid_space", "hybrid_stream"),
})
