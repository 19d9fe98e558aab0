"""Property-based chaos: arbitrary non-fatal schedules and admission
trajectories never change CSP bits and never wedge the pipeline."""

from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.baselines import naspipe
from repro.engines.functional_plane import FunctionalPlane
from repro.engines.pipeline import PipelineEngine
from repro.ft import FaultEvent, FaultSchedule, run_uninterrupted
from repro.nn.optim import MomentumSGD
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

SPACE = get_search_space("NLP.c3").scaled(
    name="prop", num_blocks=8, functional_width=16
)
STEPS = 10
SEED = 5


@lru_cache(maxsize=1)
def _baseline():
    return run_uninterrupted(SPACE, naspipe(), num_gpus=4, steps=STEPS, seed=SEED)


@st.composite
def nonfatal_schedules(draw):
    """Arbitrary well-formed schedules of the three non-fatal kinds over
    the baseline's horizon (overlapping nic windows are dropped, exactly
    as ``FaultSchedule.from_mtbf`` drops them)."""
    horizon = _baseline().makespan_ms
    events = []
    nic_spans = {}
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["nic_degrade", "copy_stall", "task_error"]))
        time_ms = draw(
            st.floats(min_value=0.0, max_value=horizon, allow_nan=False)
        )
        if kind == "nic_degrade":
            target = draw(st.integers(min_value=0, max_value=2))
            duration = draw(st.floats(min_value=1.0, max_value=200.0))
            spans = nic_spans.setdefault(target, [])
            if any(s < time_ms + duration and time_ms < e for s, e in spans):
                continue
            spans.append((time_ms, time_ms + duration))
            events.append(
                FaultEvent(
                    "nic_degrade",
                    time_ms,
                    target=target,
                    duration_ms=duration,
                    magnitude=draw(st.floats(min_value=1.5, max_value=10.0)),
                )
            )
        elif kind == "copy_stall":
            events.append(
                FaultEvent(
                    "copy_stall",
                    time_ms,
                    target=draw(st.integers(min_value=0, max_value=3)),
                    duration_ms=draw(st.floats(min_value=1.0, max_value=100.0)),
                )
            )
        else:
            events.append(
                FaultEvent(
                    "task_error",
                    time_ms,
                    target=draw(st.integers(min_value=0, max_value=3)),
                    magnitude=draw(st.integers(min_value=1, max_value=4)),
                )
            )
    return FaultSchedule(events)


@settings(max_examples=8, deadline=None)
@given(nonfatal_schedules())
def test_any_nonfatal_schedule_preserves_bits(schedule):
    baseline = _baseline()
    result = run_uninterrupted(
        SPACE,
        naspipe(),
        num_gpus=4,
        steps=STEPS,
        seed=SEED,
        faults=schedule,
        degradation=True,
    )
    assert result.subnets_completed == STEPS  # completed => no deadlock
    assert result.digest == baseline.digest
    assert result.losses == baseline.losses


def _run_with_caps(caps):
    """One engine run whose admission cap is re-set to the next value in
    ``caps`` at every subnet completion — an adversarial stand-in for
    any backpressure trajectory a mitigation policy could emit."""
    supernet = Supernet(SPACE)
    plane = FunctionalPlane(
        supernet,
        SeedSequenceTree(SEED),
        functional_batch=8,
        optimizer=MomentumSGD(0.3, 0.9, 5.0),
    )
    stream = SubnetStream.sample(SPACE, SeedSequenceTree(SEED), STEPS)
    engine = PipelineEngine(
        supernet,
        stream,
        naspipe(),
        ClusterSpec(num_gpus=4),
        functional=plane,
    )
    pending = list(caps)

    def listener(event):
        if event.kind == "subnet_complete" and pending:
            engine.admission_cap = pending.pop(0)

    engine.trace.listeners.append(listener)
    return engine.run()


@settings(max_examples=8, deadline=None)
@given(
    st.lists(
        st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        max_size=STEPS,
    )
)
def test_any_admission_trajectory_preserves_bits(caps):
    baseline = _baseline()
    result = _run_with_caps(caps)
    assert result.subnets_completed == STEPS  # even a cap of 1 cannot wedge
    assert result.digest == baseline.digest
    assert result.losses == baseline.losses
