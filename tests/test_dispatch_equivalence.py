"""Edge-triggered dispatch ≡ broadcast dispatch, event for event.

``PipelineEngine._on_task_done`` re-polls its own stage and then only
the stages ``SyncPolicy.wakes()`` names.  The broadcast it replaced —
every stage, every completion — lives on in ``dispatch_reference`` as
the oracle: whatever the policy, cluster size, fault schedule or
admission-cap trajectory, a run must emit the identical events and
intervals (and, through the functional plane, the identical digest and
losses) as the same run with the broadcast wrapped around its policy.

Both runs of a pair are built from the same space object: its name seeds
sampling and initialisation.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from repro.baselines import (
    gpipe,
    naspipe,
    naspipe_wo_predictor,
    naspipe_wo_scheduler,
    pipedream,
    ssp,
    vpipe,
)
from repro.engines.functional_plane import FunctionalPlane
from repro.engines.pipeline import PipelineEngine
from repro.errors import DeadlockError
from repro.ft import FaultInjector
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

from dispatch_reference import broadcast
from test_chaos_properties import SEED, SPACE, STEPS, nonfatal_schedules

WIDE = get_search_space("NLP.c3").scaled(
    name="dispatch", num_blocks=16, functional_width=16
)

CONFIGS = {
    "naspipe-index": naspipe,
    "naspipe-in-order": naspipe_wo_scheduler,
    "naspipe-no-predictor": naspipe_wo_predictor,
    "pipedream": pipedream,
    "gpipe": gpipe,
    "vpipe": vpipe,
    "ssp": lambda: ssp(staleness=2),
}


def _engine(space, config, gpus, seed, count, **engine_kwargs):
    supernet = Supernet(space)
    plane = FunctionalPlane(supernet, SeedSequenceTree(seed), functional_batch=6)
    speed = engine_kwargs.pop("speed_factors", None)
    return PipelineEngine(
        supernet,
        SubnetStream.sample(space, SeedSequenceTree(seed), count),
        config,
        ClusterSpec(num_gpus=gpus, gpu_speed_factors=speed),
        functional=plane,
        **engine_kwargs,
    )


def _finish(engine):
    """Run to the end; ``None`` when the modelled system itself wedges.

    A tight enough admission cap can do that under either dispatch (a
    started subnet may wait on one parked behind the full window) — but
    then no stage may have been left with runnable work.
    """
    try:
        return engine.run()
    except DeadlockError as error:
        assert all(dump["runnable"] is None for dump in error.blocked.values())
        return None


def _assert_same_run(edge_engine, reference_engine):
    """Both engines, built alike and not yet run, produce one record."""
    edge = _finish(edge_engine)
    reference = _finish(broadcast(reference_engine))
    assert edge_engine.trace.events == reference_engine.trace.events
    assert edge_engine.trace.intervals == reference_engine.trace.intervals
    assert (edge is None) == (reference is None)
    if edge is not None:
        assert edge.digest == reference.digest
        assert edge.losses == reference.losses
        assert edge.mitigation_actions == reference.mitigation_actions
    return edge, reference


@pytest.mark.parametrize("seed", [3, 2022])
@pytest.mark.parametrize("gpus", [2, 4, 8])
@pytest.mark.parametrize("system", sorted(CONFIGS))
def test_every_policy_matches_the_broadcast(system, gpus, seed):
    config = CONFIGS[system]()
    edge, reference = _assert_same_run(
        _engine(WIDE, config, gpus, seed, count=28),
        _engine(WIDE, config, gpus, seed, count=28),
    )
    assert edge.subnets_completed == 28
    if system == "naspipe-index":
        # the point of the exercise: same bytes from far fewer polls
        assert edge.scheduler_ready_pops == reference.scheduler_ready_pops
        assert edge.scheduler_calls < reference.scheduler_calls


@settings(max_examples=8, deadline=None)
@given(nonfatal_schedules())
def test_any_nonfatal_schedule_matches_the_broadcast(schedule):
    edge, _ = _assert_same_run(
        *(
            _engine(
                SPACE, naspipe(), 4, SEED, STEPS,
                faults=FaultInjector(schedule), degradation=True,
            )
            for _ in range(2)
        )
    )
    assert edge.subnets_completed == STEPS


def _with_caps(engine, caps):
    """Re-set the admission cap to the next of ``caps`` at every task
    completion — ``test_chaos_properties``' adversarial trajectory, but
    stepped on any stage's event (as the health monitor's reports are),
    so the window moves while stage 0 sits idle behind it."""
    pending = list(caps)

    def listener(event):
        if event.kind == "task_done" and pending:
            engine.admission_cap = pending.pop(0)

    engine.trace.listeners.append(listener)
    return engine


@settings(max_examples=12, deadline=None)
@given(
    st.lists(
        st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        max_size=96,
    )
)
# the window shuts, then reopens on another stage's completion while
# stage 0 idles behind it: only the stage-0 window rule wakes it
@example(caps=[1, None])
def test_any_admission_trajectory_matches_the_broadcast(caps):
    _assert_same_run(
        *(_with_caps(_engine(WIDE, naspipe(), 4, SEED, 24), caps) for _ in range(2))
    )


def test_straggler_rebalance_matches_the_broadcast():
    edge, _ = _assert_same_run(
        *(
            _engine(
                WIDE, naspipe(), 4, 11, 24,
                speed_factors=(1.0, 2.5, 1.0, 1.0), degradation=True,
            )
            for _ in range(2)
        )
    )
    assert any(a["action"] == "rebalance" for a in edge.mitigation_actions)
