"""The engine's per-task path against its copy from before per-run facts
were resolved once.

``tests/engine_reference.py`` keeps ``_begin_task``, ``_precompute_run``,
``_try_inject``, the policy's window and the trace's bubble/ALU metrics
as they were when each schedule formatted its label and each task
re-asked the config, the cluster spec and the policy.  One drawn run —
any system or ablation, 1–8 GPUs, drawn speed factors, recompute on or
off, degradation armed, task-error faults at int or float times, with
or without the functional plane — is built twice, once per engine.
Trace columns, intervals and every field of the result must be equal
by ``repr`` (a ``float`` turned ``int`` shows).

The guards below fail on that copy: they see the pass-through frames
the live engine no longer calls, and they pin the text an over-budget
run prints.
"""

import dataclasses
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from engine_reference import ReferenceEngine
from repro.baselines import (
    gpipe,
    naspipe,
    naspipe_wo_mirroring,
    naspipe_wo_predictor,
    naspipe_wo_scheduler,
    pipedream,
    ssp,
    vpipe,
)
from repro.engines.functional_plane import FunctionalPlane
from repro.engines.pipeline import PipelineEngine
from repro.errors import ReproError, SimulationError
from repro.ft import FaultEvent, FaultInjector, FaultSchedule
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

SPACE = get_search_space("NLP.c3").scaled(name="oracle", num_blocks=8, functional_width=16)

SYSTEMS = {
    "NASPipe": naspipe,
    "GPipe": gpipe,
    "PipeDream": pipedream,
    "VPipe": vpipe,
    "SSP": lambda **kw: ssp(staleness=2, **kw),
    "NASPipe w/o scheduler": naspipe_wo_scheduler,
    "NASPipe w/o predictor": naspipe_wo_predictor,
    "NASPipe w/o mirroring": naspipe_wo_mirroring,
    "NASPipe conservative": lambda **kw: naspipe(scheduler_mode="conservative", **kw),
    "NASPipe migrate": lambda **kw: naspipe(mirror_mode="migrate", **kw),
    "NASPipe small cache": lambda **kw: naspipe(cache_subnets=0.2, **kw),
}


@st.composite
def runs(draw):
    gpus = draw(st.integers(1, 8), label="gpus")
    speeds = draw(
        st.none() | st.lists(st.sampled_from([0.5, 1.0, 1.25, 3.0]), min_size=gpus, max_size=gpus),
        label="speeds",
    )
    faults = draw(
        st.lists(
            st.tuples(
                st.integers(0, 400) | st.floats(0.0, 400.0),
                st.integers(0, gpus - 1),
                st.integers(1, 3),
            ),
            max_size=3,
        ),
        label="task errors",
    )
    return {
        "system": draw(st.sampled_from(sorted(SYSTEMS)), label="system"),
        "recompute": draw(st.booleans(), label="recompute"),
        "gpus": gpus,
        "speeds": speeds,
        "faults": faults,
        "functional": draw(st.booleans(), label="functional"),
        "subnets": draw(st.integers(1, 12), label="subnets"),
        "seed": draw(st.integers(0, 3), label="seed"),
    }


def _engine(engine_type, run):
    supernet = Supernet(SPACE)
    schedule = FaultSchedule(
        [FaultEvent("task_error", time, target=stage, magnitude=count) for time, stage, count in run["faults"]]
    )
    return engine_type(
        supernet,
        SubnetStream.sample(SPACE, SeedSequenceTree(run["seed"]), run["subnets"]),
        SYSTEMS[run["system"]](recompute=run["recompute"]),
        ClusterSpec(
            num_gpus=run["gpus"],
            gpu_speed_factors=tuple(run["speeds"]) if run["speeds"] else None,
        ),
        batch=8,
        functional=(
            FunctionalPlane(supernet, SeedSequenceTree(run["seed"]), functional_batch=4)
            if run["functional"]
            else None
        ),
        faults=FaultInjector(schedule) if run["faults"] else None,
        degradation=True,
    )


def _record(engine):
    """What one engine run leaves: its error's text, or its trace
    columns, intervals and result fields, each by ``repr``."""
    try:
        result = engine.run()
    except ReproError as error:
        return {"error": f"{type(error).__name__}: {error}"}
    fields = {
        f.name: repr(getattr(result, f.name))
        for f in dataclasses.fields(result)
        if f.name != "trace"
    }
    log = result.trace.events
    return {
        "columns": repr((log.kind, log.time, log.stage, log.subnet_id, log.attrs)),
        "intervals": repr(result.trace.intervals),
        "fields": fields,
    }


@settings(max_examples=60, deadline=None)
@given(runs())
def test_the_per_task_path_matches_the_reference(run):
    assert _record(_engine(PipelineEngine, run)) == _record(_engine(ReferenceEngine, run))


def test_the_reference_runs_the_parent_path():
    """The oracle is not the live engine under another name."""
    run = {
        "system": "PipeDream", "recompute": True, "gpus": 4, "speeds": None,
        "faults": [], "functional": False, "subnets": 4, "seed": 0,
    }
    engine = _engine(ReferenceEngine, run)
    assert type(engine.policy).__name__ == "ReferenceAspPolicy"
    assert engine.stage_states[0].clock.__name__ == "<lambda>"
    assert _record(engine)["fields"]["bubble_ratio"] == _record(
        _engine(PipelineEngine, run)
    )["fields"]["bubble_ratio"]


# ----------------------------------------------------------------------
# guards
# ----------------------------------------------------------------------
def _pipedream(subnets=16):
    return PipelineEngine(
        Supernet(SPACE),
        SubnetStream.sample(SPACE, SeedSequenceTree(1), subnets),
        pipedream(),
        ClusterSpec(num_gpus=4),
        batch=32,
    )


def test_the_per_task_path_calls_no_pass_through():
    """Effort guard: a PipeDream run calls no engine ``schedule`` or
    ``schedule_after`` wrapper, reads the clock through no second
    property and no lambda, and asks no window method while no
    admission cap is set — one frame per clock read and per schedule."""
    engine = _pipedream()
    seen = set()

    def profiler(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        path = code.co_filename.replace("\\", "/")
        if path.endswith("sim/engine.py") and code.co_name in ("schedule", "schedule_after"):
            seen.add(f"SimulationEngine.{code.co_name}")
        elif path.endswith("sim/clock.py") and code.co_name == "now":
            seen.add("EventQueue.now")
        elif path.endswith("sim/cluster.py") and code.co_name == "speed_factor":
            seen.add("ClusterSpec.speed_factor")
        elif path.endswith("engines/policies/base.py") and code.co_name in (
            "window", "effective_window",
        ):
            seen.add(f"SyncPolicy.{code.co_name}")
        elif path.endswith("engines/pipeline.py") and code.co_name == "effective_window":
            seen.add("PipelineEngine.effective_window")
        elif code.co_name == "<lambda>" and frame.f_back.f_code.co_name == "_sample_depth":
            seen.add("clock lambda")

    sys.setprofile(profiler)
    try:
        result = engine.run()
    finally:
        sys.setprofile(None)
    assert result.subnets_completed == 16
    assert seen == set()


def test_transfer_rows_share_their_leading_pairs():
    """``nic_transfer``'s ``src``/``dst``/``nbytes`` pairs are the same
    three objects for every row of one value (new ones per row at the
    parent)."""
    engine = _pipedream()
    engine.run()
    log = engine.trace.events
    rows = [attrs for kind, attrs in zip(log.kind, log.attrs) if kind == "nic_transfer"]
    objects = {tuple(map(id, attrs[:3])) for attrs in rows}
    values = {attrs[:3] for attrs in rows}
    assert len(objects) == len(values) < len(rows)


@pytest.mark.parametrize(
    "budget, label",
    [
        (1, "inject SN1"),
        (4, "SN0.fwd@P0"),
        (5, "fwd-xfer SN0->P1"),
        (27, "SN0.bwd@P3"),
        (29, "bwd-xfer SN0->P2"),
    ],
)
def test_an_over_budget_run_names_its_event(budget, label):
    """Labels are formatted only when read, and read the same."""
    engine = _pipedream()
    engine.sim.max_events = budget
    with pytest.raises(SimulationError) as error:
        engine.run()
    assert str(error.value) == (
        f"event budget exhausted ({budget}); likely a scheduling livelock "
        f"(first over-budget event {label!r})"
    )
