"""Coverage for corners the focused suites skip: the error hierarchy,
policy units, trace renderings, manifest resolution, hybrid functional
reproducibility."""

import pytest

from repro import errors
from repro.baselines import gpipe, naspipe, pipedream
from repro.config import SystemConfig
from repro.engines.policies.asp import AspPolicy
from repro.engines.policies.bsp import BspPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.trace import ExecutionTrace


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
def test_error_hierarchy():
    assert issubclass(errors.ConfigError, errors.ReproError)
    assert issubclass(errors.DeadlockError, errors.SimulationError)
    assert issubclass(errors.DependencyViolationError, errors.SchedulingError)
    oom = errors.GpuOutOfMemoryError(3, requested=100, available=10)
    assert oom.gpu_id == 3 and "100" in str(oom)
    violation = errors.DependencyViolationError("task", 5, (0, 1))
    assert violation.blocking_subnet == 5
    assert "subnet 5" in str(violation)
    deadlock = errors.DeadlockError({"inflight": [1]})
    assert "inflight" in str(deadlock)


# ----------------------------------------------------------------------
# policy units (without a full engine)
# ----------------------------------------------------------------------
class _FakeState:
    def __init__(self, queue):
        self.queue = queue


class _FakeEngine:
    """What a policy reads of its engine — with a real trace and clock,
    so product code carries no "is this a test double" guard."""

    def __init__(self, queue, inflight=0):
        self.stage_states = [_FakeState(queue)]
        self.inflight = set(range(inflight))
        self.trace = ExecutionTrace(num_gpus=1)
        self.sim = SimulationEngine(trace=self.trace)

    def oldest_unfinished_subnet(self):
        return min(self.inflight) if self.inflight else 0

    def effective_window(self, base):
        return base


def test_bsp_policy_bulk_accounting():
    policy = BspPolicy(gpipe(bulk_size=3), stages=4)
    policy.bind(_FakeEngine(queue=[5, 9]))
    assert policy.select_forward(0) == 5
    assert policy.can_inject()
    for sid in (0, 1, 2):
        policy.on_injected(sid)
    assert not policy.can_inject()
    assert policy.on_subnet_complete(1) == []
    assert policy.on_subnet_complete(0) == []
    assert policy.on_subnet_complete(2) == [0, 1, 2]  # sorted flush
    assert policy.flushes == 1
    assert [event.kind for event in policy.engine.trace.events] == ["bulk_flush"]
    assert policy.can_inject()


def test_bsp_finalize_flushes_partial_bulk():
    policy = BspPolicy(gpipe(bulk_size=4), stages=4)
    policy.bind(_FakeEngine(queue=[]))
    policy.on_injected(0)
    policy.on_injected(1)
    assert policy.on_subnet_complete(1) == []
    assert policy.finalize() == [1]


def test_asp_policy_fifo():
    policy = AspPolicy(pipedream(), stages=4)
    policy.bind(_FakeEngine(queue=[7, 8]))
    assert policy.select_forward(0) == 7
    policy.bind(_FakeEngine(queue=[]))
    assert policy.select_forward(0) is None


# ----------------------------------------------------------------------
# trace renderings
# ----------------------------------------------------------------------
def test_gantt_rows_sorted_by_gpu_then_time():
    trace = ExecutionTrace(num_gpus=2)
    trace.record_interval(1, 0.0, 1.0, "fwd", 0)
    trace.record_interval(0, 2.0, 3.0, "bwd", 0)
    trace.record_interval(0, 0.0, 1.0, "fwd", 1)
    rows = trace.gantt_rows()
    assert rows == [
        (0, 0.0, 1.0, "fwd", 1),
        (0, 2.0, 3.0, "bwd", 0),
        (1, 0.0, 1.0, "fwd", 0),
    ]


# ----------------------------------------------------------------------
# manifest resolution
# ----------------------------------------------------------------------
def test_manifest_resolution_and_overrides():
    from repro.replay import RunManifest

    manifest = RunManifest(
        "NLP.c3",
        "GPipe",
        space_overrides={"num_blocks": 10},
        system_overrides={"bulk_size": 7},
    )
    space, system = manifest.resolve()
    assert space.num_blocks == 10
    assert isinstance(system, SystemConfig)
    assert system.bulk_size == 7


# ----------------------------------------------------------------------
# hybrid traversal is itself reproducible
# ----------------------------------------------------------------------
def test_hybrid_traverse_reproducible_across_gpu_counts():
    from repro.engines.functional_plane import FunctionalPlane
    from repro.engines.pipeline import PipelineEngine
    from repro.nas.hybrid import HybridSupernet, hybrid_stream
    from repro.seeding import SeedSequenceTree
    from repro.sim.cluster import ClusterSpec
    from repro.supernet.search_space import get_search_space

    members = [
        get_search_space("NLP.c2").scaled(num_blocks=8, functional_width=16),
        get_search_space("NLP.c3").scaled(num_blocks=8, functional_width=16),
    ]

    def run(gpus):
        hybrid = HybridSupernet(members)
        seeds = SeedSequenceTree(4)
        stream = hybrid_stream(members, seeds, count_per_member=6)
        plane = FunctionalPlane(hybrid, seeds, functional_batch=6)
        PipelineEngine(
            hybrid, stream, naspipe(), ClusterSpec(num_gpus=gpus),
            batch=32, functional=plane,
        ).run()
        return plane.digest()

    assert run(2) == run(4)
