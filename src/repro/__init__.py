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

from repro.seeding import SeedSequenceTree
from repro.config import SystemConfig
from repro.supernet import (
    SearchSpace,
    Subnet,
    SubnetStream,
    Supernet,
    SposSampler,
    get_search_space,
    list_search_spaces,
)
from repro.partition import balanced_partition, static_partition_for_space
from repro.sim import Cluster, ClusterSpec
from repro.core import (
    ContextPredictor,
    CspScheduler,
    DependencyTracker,
    StageContextManager,
    Task,
    TaskKind,
)
from repro.engines import (
    FunctionalPlane,
    IntraSubnetEngine,
    PipelineEngine,
    PipelineResult,
    SequentialEngine,
)
from repro.baselines import (
    ALL_SYSTEMS,
    ABLATIONS,
    gpipe,
    naspipe,
    naspipe_wo_mirroring,
    naspipe_wo_predictor,
    naspipe_wo_scheduler,
    pipedream,
    ssp,
    system_by_name,
    vpipe,
)
from repro.memory_model import max_feasible_batch
from repro.replay import RunManifest, execute_manifest, record_run, verify_replay
from repro.viz import ascii_gantt, utilization_sparklines
from repro import errors

__version__ = "1.0.0"

__all__ = [
    "SeedSequenceTree",
    "SystemConfig",
    "SearchSpace",
    "Subnet",
    "SubnetStream",
    "Supernet",
    "SposSampler",
    "get_search_space",
    "list_search_spaces",
    "balanced_partition",
    "static_partition_for_space",
    "Cluster",
    "ClusterSpec",
    "ContextPredictor",
    "CspScheduler",
    "DependencyTracker",
    "StageContextManager",
    "Task",
    "TaskKind",
    "FunctionalPlane",
    "IntraSubnetEngine",
    "PipelineEngine",
    "PipelineResult",
    "SequentialEngine",
    "ALL_SYSTEMS",
    "ABLATIONS",
    "naspipe",
    "gpipe",
    "pipedream",
    "vpipe",
    "ssp",
    "naspipe_wo_scheduler",
    "naspipe_wo_predictor",
    "naspipe_wo_mirroring",
    "system_by_name",
    "max_feasible_batch",
    "RunManifest",
    "execute_manifest",
    "record_run",
    "verify_replay",
    "ascii_gantt",
    "utilization_sparklines",
    "errors",
    "__version__",
]
