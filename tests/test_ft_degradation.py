"""Health monitoring, deterministic mitigation, weighted rebalancing."""

from types import SimpleNamespace

import pytest

from repro.baselines import naspipe
from repro.engines.pipeline import PipelineEngine
from repro.errors import ConfigError, PartitionError
from repro.ft import (
    DegradationManager,
    FaultEvent,
    FaultSchedule,
    HealthMonitor,
    run_uninterrupted,
)
from repro.obs import validate_trace
from repro.obs.events import EVENT_SCHEMAS
from repro.partition.balanced import (
    balanced_partition,
    weighted_balanced_partition,
)
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.sim.trace import ExecutionTrace, TraceEvent
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet


@pytest.fixture(scope="module")
def deg_space():
    return get_search_space("NLP.c3").scaled(
        name="deg", num_blocks=8, functional_width=16
    )


@pytest.fixture(scope="module")
def deg_baseline(deg_space):
    return run_uninterrupted(deg_space, naspipe(), num_gpus=4, steps=20, seed=11)


# ----------------------------------------------------------------------
# the on/off flag
# ----------------------------------------------------------------------
def test_as_manager_coercions(deg_space):
    """``degradation`` is a bool: off builds no manager, on builds a
    fresh one bound to the engine."""

    def engine(**kwargs):
        return PipelineEngine(
            Supernet(deg_space),
            SubnetStream.sample(deg_space, SeedSequenceTree(1), 2),
            naspipe(),
            ClusterSpec(num_gpus=2),
            **kwargs,
        )

    assert engine().degradation is None
    assert engine(degradation=False).degradation is None
    first, second = engine(degradation=True), engine(degradation=True)
    assert isinstance(first.degradation, DegradationManager)
    assert first.degradation.engine is first
    assert first.degradation is not second.degradation


# ----------------------------------------------------------------------
# the monitor, fed synthetic events
# ----------------------------------------------------------------------
def _monitor(slice_ms=10.0):
    transitions = []
    monitor = HealthMonitor(
        slice_cost_fn=lambda stage, subnet_id, direction: slice_ms,
        link_params_fn=lambda link: (100.0, 0.5),
        on_transition=lambda *args: transitions.append(args),
    )
    return monitor, transitions


def _task(monitor, duration, t=0.0, stage=0):
    monitor.observe(
        TraceEvent(
            "task_dispatch",
            t,
            stage=stage,
            subnet_id=1,
            attrs=(("start", t), ("end", t + duration), ("direction", "fwd")),
        )
    )


def test_monitor_waits_for_min_samples():
    monitor, transitions = _monitor()
    for i in range(3):
        _task(monitor, 50.0, float(i))  # ratio 5: flagrant, but unproven
    assert transitions == []
    _task(monitor, 50.0, 3.0)
    assert [t[:3] for t in transitions] == [("stage", 0, "straggler")]


def test_monitor_hysteresis_band_holds_state():
    monitor, transitions = _monitor()
    # inside the band (exit 1.25 < 1.4 < enter 1.6): never unhealthy
    for i in range(8):
        _task(monitor, 14.0, float(i))
    assert transitions == []
    # cross the enter threshold
    for i in range(8):
        _task(monitor, 20.0, float(8 + i))
    assert monitor.status[("stage", 0)] == "straggler"
    assert transitions[-1][:3] == ("stage", 0, "straggler")
    count = len(transitions)
    # decay back into the band: hysteresis keeps the straggler status
    while monitor.estimate("stage", 0) > 1.45:
        _task(monitor, 14.0, 99.0)
    assert monitor.status[("stage", 0)] == "straggler"
    assert len(transitions) == count
    # only the exit threshold flips it back
    while monitor.estimate("stage", 0) > 1.25:
        _task(monitor, 10.0, 99.0)
    assert monitor.status[("stage", 0)] == "healthy"
    assert transitions[-1][:3] == ("stage", 0, "healthy")


def test_monitor_ignores_unprofiled_slices_and_own_plane():
    monitor, transitions = _monitor(slice_ms=0.0)
    for i in range(8):
        _task(monitor, 50.0, float(i))  # no nominal => no estimate
    assert monitor.estimate("stage", 0) is None
    # the kinds the mitigation plane itself emits are skipped outright
    monitor.observe(TraceEvent("health_report", 0.0))
    monitor.observe(TraceEvent("mitigation_apply", 0.0))
    monitor.observe(TraceEvent("rebalance", 0.0))
    assert transitions == []


# ----------------------------------------------------------------------
# the manager, bound to a stub engine
# ----------------------------------------------------------------------
def _fake_engine(stages=4, window=4):
    profile = SimpleNamespace(fwd_ms_ref=10.0, bwd_ms_ref=20.0)
    return SimpleNamespace(
        stages=stages,
        trace=ExecutionTrace(num_gpus=stages),
        sim=SimpleNamespace(now=0.0),
        policy=SimpleNamespace(window=window),
        admission_cap=None,
        contexts=[SimpleNamespace(throttled=False) for _ in range(stages)],
        cluster=SimpleNamespace(
            spec=SimpleNamespace(link_parameters=lambda a, b: (100.0, 0.5))
        ),
        runs={7: object()},
        stage_layers=lambda subnet_id, stage: ["block"],
        supernet=SimpleNamespace(
            profile=lambda layer: profile,
            batch_time_scale=lambda batch: 1.0,
        ),
        config=SimpleNamespace(recompute=False),
        batch=4,
    )


def _dispatch(engine, stage, duration, t):
    engine.sim.now = t
    engine.trace.record_event(
        "task_dispatch",
        t,
        stage=stage,
        subnet_id=7,
        start=t,
        end=t + duration,
        direction="fwd",
    )


def _transfer(engine, t, ratio):
    # 100 bytes at nominal 100 B/ms with 0.5 ms latency: a ratio-r
    # transfer spends 1/r ms on the wire
    engine.sim.now = t
    engine.trace.record_event(
        "nic_transfer",
        t,
        stage=0,
        src=0,
        dst=1,
        nbytes=100,
        arrive=t + 0.5 + 1.0 / ratio,
    )


def test_manager_is_single_use():
    manager = DegradationManager()
    engine = _fake_engine()
    manager.bind(engine)
    assert manager.monitor.observe in engine.trace.listeners
    with pytest.raises(ConfigError):
        manager.bind(engine)


def test_degraded_link_caps_admission_then_lifts():
    manager = DegradationManager()
    engine = _fake_engine(window=4)
    manager.bind(engine)
    t = 0.0
    for _ in range(4):
        t += 5.0
        _transfer(engine, t, 0.1)
    assert engine.admission_cap == 2  # window 4 shrunk by 2, floor 2
    # healthy transfers drive the EWMA past the exit ratio
    for _ in range(6):
        t += 5.0
        _transfer(engine, t, 1.0)
    assert engine.admission_cap is None
    caps = [a for a in manager.actions if a["action"] == "admission_cap"]
    assert [c["active"] for c in caps] == [True, False]
    counts = engine.trace.event_counts()
    assert counts["health_report"] == 2
    assert counts["mitigation_apply"] == 2


def test_straggler_rebalances_but_never_caps_admission():
    manager = DegradationManager()
    engine = _fake_engine()
    manager.bind(engine)
    t = 0.0
    for _ in range(4):
        t += 10.0
        _dispatch(engine, 1, 25.0, t)  # 2.5x the 10 ms nominal
    assert manager.stage_weights == {1: 2.5}  # snapped to the 0.25 quantum
    assert manager.partition_weights() == [1.0, 2.5, 1.0, 1.0]
    # backpressure exempts compute stragglers: rebalancing handles them
    assert engine.admission_cap is None
    rebalances = [a for a in manager.actions if a["action"] == "rebalance"]
    assert rebalances[-1]["target"] == 1
    assert rebalances[-1]["value"] == 2.5
    assert "rebalance" in engine.trace.event_counts()
    # recovery resets the weight and the fast path returns None
    for _ in range(12):
        t += 10.0
        _dispatch(engine, 1, 10.0, t)
    assert manager.partition_weights() is None
    assert manager.actions[-1]["action"] == "rebalance"
    assert manager.actions[-1]["active"] is False


def test_stalled_copy_engine_throttles_prefetch():
    manager = DegradationManager()
    engine = _fake_engine()
    manager.bind(engine)
    t = 0.0
    for _ in range(4):
        t += 10.0
        engine.sim.now = t
        engine.trace.record_event("fetch_stall", t, stage=2, wait_ms=8.0)
        _dispatch(engine, 2, 10.0, t)
    assert engine.contexts[2].throttled is True
    assert engine.admission_cap == 2  # a sick copy engine is an I/O fault
    throttles = [
        a for a in manager.actions if a["action"] == "prefetch_throttle"
    ]
    assert throttles[-1]["target"] == 2
    assert throttles[-1]["active"] is True
    # stall-free dispatches mix zero samples in until the status exits
    for _ in range(8):
        t += 10.0
        _dispatch(engine, 2, 10.0, t)
    assert engine.contexts[2].throttled is False
    assert engine.admission_cap is None


def test_effective_window_clamps_to_cap():
    stub = SimpleNamespace(admission_cap=None)
    assert PipelineEngine.effective_window(stub, 4) == 4
    stub.admission_cap = 2
    assert PipelineEngine.effective_window(stub, 4) == 2
    assert PipelineEngine.effective_window(stub, 1) == 1  # never widens
    stub.admission_cap = 0
    assert PipelineEngine.effective_window(stub, 4) == 1  # one stays in flight


# ----------------------------------------------------------------------
# weighted partitioning
# ----------------------------------------------------------------------
def test_weighted_partition_uniform_weights_match_balanced():
    costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    assert weighted_balanced_partition(costs, 3, [2.0, 2.0, 2.0]) == (
        balanced_partition(costs, 3)
    )


def test_weighted_partition_shifts_blocks_off_the_straggler():
    assert weighted_balanced_partition([1, 1, 1, 1], 2, [3.0, 1.0]) == [
        (0, 1),
        (1, 4),
    ]
    costs = [1.0] * 8
    weights = [1.0, 2.0, 1.0, 1.0]
    uniform = balanced_partition(costs, 4)
    weighted = weighted_balanced_partition(costs, 4, weights)
    assert (weighted[1][1] - weighted[1][0]) < (uniform[1][1] - uniform[1][0])

    def load(partition):
        return max(
            weights[i] * sum(costs[start:stop])
            for i, (start, stop) in enumerate(partition)
        )

    assert load(weighted) <= load(uniform)


def test_weighted_partition_validation_and_coverage():
    with pytest.raises(PartitionError):
        weighted_balanced_partition([1, 1], 3, [1.0, 1.0, 1.0])
    with pytest.raises(PartitionError):
        weighted_balanced_partition([1, 1, 1], 2, [1.0])
    with pytest.raises(PartitionError):
        weighted_balanced_partition([1, 1, 1], 2, [1.0, 0.0])
    with pytest.raises(PartitionError):
        weighted_balanced_partition([1, -1, 1], 2, [1.0, 2.0])
    # the final stage absorbs every remaining block even over its cap
    # (regression: a heavily-weighted last stage used to strand blocks)
    partition = weighted_balanced_partition(
        [5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0], 4, [1.0, 1.0, 1.0, 4.0]
    )
    assert partition[0][0] == 0 and partition[-1][1] == 8
    assert all(stop > start for start, stop in partition)
    assert all(partition[i][1] == partition[i + 1][0] for i in range(3))


# ----------------------------------------------------------------------
# end to end: detection + mitigation inside real runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_gpus", [2, 4, 8])
def test_healthy_run_applies_no_mitigations(deg_space, deg_baseline, num_gpus):
    """Calibration regression: with mitigation armed, a fault-free run
    must look healthy at every GPU count — zero transitions, zero
    actions, and (CSP) the same bits as the 4-GPU baseline."""
    armed = run_uninterrupted(
        deg_space, naspipe(), num_gpus=num_gpus, steps=20, seed=11,
        degradation=True,
    )
    assert armed.mitigation_actions == []
    assert list(armed.trace.events_of("health_report", "mitigation_apply")) == []
    assert armed.digest == deg_baseline.digest
    assert armed.losses == deg_baseline.losses


def test_straggler_run_rebalances_with_identical_digest(deg_space, deg_baseline):
    speed = (1.0, 2.5, 1.0, 1.0)
    unmitigated = run_uninterrupted(
        deg_space, naspipe(), num_gpus=4, steps=20, seed=11,
        speed_factors=speed,
    )
    mitigated = run_uninterrupted(
        deg_space, naspipe(), num_gpus=4, steps=20, seed=11,
        speed_factors=speed, degradation=True,
    )
    # CSP: per-GPU speeds and repartitioning change timing only
    assert unmitigated.digest == deg_baseline.digest
    assert mitigated.digest == deg_baseline.digest
    assert mitigated.losses == deg_baseline.losses
    rebalances = [
        a for a in mitigated.mitigation_actions if a["action"] == "rebalance"
    ]
    assert rebalances and rebalances[0]["target"] == 1
    assert rebalances[0]["value"] > 1.0
    # compute stragglers are rebalanced, never used as backpressure
    assert not any(
        a["action"] == "admission_cap" for a in mitigated.mitigation_actions
    )
    assert validate_trace(mitigated.trace) == []
    for kind in ("health_report", "mitigation_apply", "rebalance"):
        assert kind in EVENT_SCHEMAS
        assert kind in mitigated.trace.event_counts()


def test_nic_degrade_fault_caps_admission(deg_space, deg_baseline):
    faults = FaultSchedule(
        [
            FaultEvent(
                "nic_degrade", 40.0, target=1, duration_ms=500.0, magnitude=8.0
            )
        ]
    )
    mitigated = run_uninterrupted(
        deg_space, naspipe(), num_gpus=4, steps=20, seed=11,
        faults=faults, degradation=True,
    )
    assert mitigated.digest == deg_baseline.digest
    assert mitigated.losses == deg_baseline.losses
    caps = [
        a for a in mitigated.mitigation_actions if a["action"] == "admission_cap"
    ]
    assert caps and caps[0]["active"] is True
    assert validate_trace(mitigated.trace) == []


def test_copy_stall_fault_throttles_prefetch(deg_space, deg_baseline):
    faults = FaultSchedule(
        [
            FaultEvent(
                "copy_stall", 30.0 + 25.0 * i, target=2, duration_ms=50.0
            )
            for i in range(6)
        ]
    )
    mitigated = run_uninterrupted(
        deg_space, naspipe(), num_gpus=4, steps=20, seed=11,
        faults=faults, degradation=True,
    )
    assert mitigated.digest == deg_baseline.digest
    assert mitigated.losses == deg_baseline.losses
    throttles = [
        a
        for a in mitigated.mitigation_actions
        if a["action"] == "prefetch_throttle"
    ]
    assert throttles and throttles[0]["target"] == 2
    assert throttles[0]["active"] is True
    assert validate_trace(mitigated.trace) == []
