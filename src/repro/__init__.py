"""NASPipe reproduction: reproducible pipeline-parallel supernet training.

Reimplementation of *NASPipe: High Performance and Reproducible Pipeline
Parallel Supernet Training via Causal Synchronous Parallelism* (Zhao et
al., ASPLOS 2022) as a pure-Python library: the CSP scheduler, context
predictor and manager, layer mirroring, the GPipe/PipeDream/VPipe
baselines, a deterministic numpy training substrate, and a discrete-event
GPU-cluster simulator replacing the paper's 32-GPU testbed.

Quickstart::

    from repro import (
        get_search_space, Supernet, SubnetStream, SeedSequenceTree,
        naspipe, PipelineEngine,
    )

    space = get_search_space("NLP.c1")
    supernet = Supernet(space)
    seeds = SeedSequenceTree(2022)
    stream = SubnetStream.sample(space, seeds, count=64)
    engine = PipelineEngine(supernet, stream, naspipe())
    result = engine.run()
    print(result.summary())
"""

import importlib

__version__ = "1.0.0"


def _exports(namespace: dict, table: dict):
    """PEP 562 lazy re-exports for the package whose globals are
    ``namespace``: ``table`` maps each defining module to the names it
    exports (the package's own name maps to exported submodules).
    Returns ``(__getattr__, __dir__, __all__)``; a name's module is
    imported on the name's first use, and the value is then bound into
    ``namespace`` so later reads are plain attribute reads."""
    package = namespace["__name__"]
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == package:
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *owner})

    return __getattr__, __dir__, list(owner)


__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.seeding": ("SeedSequenceTree",),
    "repro.config": ("SystemConfig",),
    "repro.supernet": (
        "SearchSpace", "Subnet", "SubnetStream", "Supernet", "SposSampler",
        "get_search_space", "list_search_spaces",
    ),
    "repro.partition": ("balanced_partition", "static_partition_for_space"),
    "repro.sim": ("Cluster", "ClusterSpec"),
    "repro.core": (
        "ContextPredictor", "CspScheduler", "DependencyTracker",
        "StageContextManager", "Task", "TaskKind",
    ),
    "repro.engines": (
        "FunctionalPlane", "IntraSubnetEngine", "PipelineEngine", "PipelineResult",
        "SequentialEngine",
    ),
    "repro.baselines": (
        "ALL_SYSTEMS", "ABLATIONS", "naspipe", "gpipe", "pipedream", "vpipe", "ssp",
        "naspipe_wo_scheduler", "naspipe_wo_predictor", "naspipe_wo_mirroring",
        "system_by_name",
    ),
    "repro.memory_model": ("max_feasible_batch",),
    "repro.replay": ("RunManifest", "execute_manifest", "record_run", "verify_replay"),
    "repro.viz": ("ascii_gantt", "utilization_sparklines"),
    "repro": ("errors",),
})
__all__.append("__version__")
