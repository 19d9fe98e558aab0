"""The trace schema check reads columns; these tests hold it to the
per-event loop it replaced (``validate_reference.py``, copied verbatim).

``validate_trace`` must return the identical problem list — same messages,
same order — on clean traces of every plane (pipeline, serving, service,
fleet), on every malformed shape one at a time and several to a row, and
on hypothesis-drawn rows that drop, add, duplicate, reorder and mistype
attrs, or carry ``numpy.float64`` times and values.
"""

import json
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings, strategies as st

import repro.invariants as invariants
import validate_reference
from goldens import READER_RUNS, one_event_per_kind
from repro.ft import FaultEvent, FaultSchedule, run_fleet_scenario
from repro.obs.events import EVENT_SCHEMAS, _problems, validate_trace
from repro.serving import ServingEngine, ServingSpec
from repro.service import ClusterManager, JobScheduler, JobSpec
from repro.sim.cluster import ClusterSpec
from repro.sim.trace import ExecutionTrace, TraceEvent

from test_serving import SMALL_CONFIG

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
OVERRIDES = {"num_blocks": 8, "functional_width": 16}


def assert_same_problems(trace):
    expected = validate_reference.validate_trace(trace)
    assert validate_trace(trace) == expected
    return expected


# ----------------------------------------------------------------------
# clean traces of every plane
# ----------------------------------------------------------------------
def _service_trace():
    """An elastic CSP job and a rigid PipeDream job, one slot preempted."""
    manager = ClusterManager(ClusterSpec(num_gpus=6))
    scheduler = JobScheduler(manager, quantum=4, resize_cost_ms=20.0)
    for name, space, system, seed, gpus in (
        ("elastic", "NLP.c3", "NASPipe", 2022, (2, 4)),
        ("rigid", "CV.c3", "PipeDream", 7, (2, 2)),
    ):
        scheduler.submit(
            JobSpec(
                name=name, space=space, space_overrides=OVERRIDES, system=system,
                subnets=8, seed=seed, min_gpus=gpus[0], max_gpus=gpus[1],
            )
        )
    scheduler.inject_fleet_faults(
        FaultSchedule([FaultEvent("slot_preempt", 300.0, target=0, duration_ms=80.0)])
    )
    scheduler.run()
    return scheduler.trace


def _fleet_traces(monkeypatch):
    """Both planes' traces of one storm, caught where the scenario
    schema-checks them."""
    traces = []
    check = invariants.validate_trace
    monkeypatch.setattr(
        invariants, "validate_trace", lambda trace: traces.append(trace) or check(trace)
    )
    row = run_fleet_scenario(
        json.loads((EXAMPLES / "chaos_fleet_demo.json").read_text()),
        fleet_slots=8,
        storm_seed=1,
        horizon_ms=1500.0,
    )
    assert row["revocations"] > 0 and len(traces) == 2
    return traces


@pytest.mark.parametrize("name", ["naspipe-4gpu", "pipedream-2gpu", "naspipe-small-oom", "ssp2-4gpu"])
def test_a_clean_pipeline_trace_gives_the_reference_list(name):
    assert assert_same_problems(READER_RUNS[name](None).trace) == []


def test_one_event_per_kind_gives_the_reference_list():
    assert assert_same_problems(one_event_per_kind()) == []


def test_a_clean_serving_trace_gives_the_reference_list():
    trace = ServingEngine(ServingSpec.from_payload(dict(SMALL_CONFIG, rate_rps=640.0))).run().trace
    assert {"request_shed", "batch_form", "cache_hit"} <= set(trace.event_counts())
    assert assert_same_problems(trace) == []


def test_a_clean_service_trace_gives_the_reference_list():
    trace = _service_trace()
    assert {"job_submit", "job_start", "lease_revoke", "job_done"} <= set(trace.event_counts())
    assert assert_same_problems(trace) == []


def test_clean_fleet_traces_give_the_reference_list(monkeypatch):
    for trace in _fleet_traces(monkeypatch):
        assert assert_same_problems(trace) == []


# ----------------------------------------------------------------------
# malformed rows
# ----------------------------------------------------------------------
_FWD = (("direction", "fwd"),)
_NAN = float("nan")
#: name -> (kind, time, stage, subnet_id, attrs), each wrong in one way
#: (the last two in several at once) but for the VALID three
MALFORMED = {
    "unknown kind": ("nope", 1.0, 0, 3, _FWD),
    "bool time": ("task_done", True, 0, 3, _FWD),
    "nan time": ("task_done", _NAN, 0, 3, _FWD),
    "inf time": ("task_done", float("inf"), 0, 3, _FWD),
    "-inf time": ("task_done", float("-inf"), 0, 3, _FWD),
    "str time": ("task_done", "1.0", 0, 3, _FWD),
    "negative stage on a staged kind": ("task_done", 1.0, -1, 3, _FWD),
    "stage on a global kind": ("subnet_inject", 1.0, 2, 3, ()),
    "negative subnet on a subnet kind": ("task_done", 1.0, 0, -1, _FWD),
    "missing attr": ("queue_depth", 1.0, 0, -1, (("fwd", 1),)),
    "no attrs": ("task_done", 1.0, 0, 3, ()),
    "extra attr": ("task_done", 1.0, 0, 3, (*_FWD, ("bogus", 1))),
    "attr on an attr-less kind": ("subnet_complete", 1.0, -1, 3, (("bogus", 1),)),
    "duplicated key, later value valid": ("task_done", 1.0, 0, 3, (("direction", 7), *_FWD)),
    "duplicated key, later value wrong": ("task_done", 1.0, 0, 3, (*_FWD, ("direction", 7))),
    "duplicated key hiding a missing one": ("queue_depth", 1.0, 0, -1, (("fwd", 1), ("fwd", 2))),
    "reordered attrs": ("queue_depth", 1.0, 0, -1, (("bwd", 1), ("fwd", 2))),
    "reordered attrs, one mistyped": ("queue_depth", 1.0, 0, -1, (("bwd", 1.5), ("fwd", 2))),
    "bool where an int is declared": ("ready_set", 1.0, 0, -1, (("size", True),)),
    "bool where a number is declared": ("migration", 1.0, 0, -1, (("delay_ms", False),)),
    "wrong type": ("task_done", 1.0, 0, 3, (("direction", 7),)),
    "float where an int is declared": ("ready_set", 1.0, 0, -1, (("size", 2.0),)),
    "numpy floats, valid": (
        "fetch_stall", numpy.float64(1.0), 0, 3, (("wait_ms", numpy.float64(2.0)), ("misses", 1))
    ),
    "numpy int where an int is declared": ("ready_set", 1.0, 0, -1, (("size", numpy.int64(2)),)),
    "None value": ("cache_access", 1.0, 0, -1, (("hits", None), ("misses", 0))),
    "everything at once": (
        "prefetch_issue",
        _NAN,
        -4,
        -1,
        (("demand", 1), ("block", True), ("choice", "c"), ("land", 2.0), ("x", 0), ("block", 3)),
    ),
    "global kind, everything wrong": ("job_resize", False, 0, 7, (("gpus_to", "4"), ("job", 1))),
}

#: shapes the fast path leaves to the per-event builder, which accepts them
VALID = ("duplicated key, later value valid", "reordered attrs", "numpy floats, valid")


def _clean_trace():
    return READER_RUNS["naspipe-2gpu"](None).trace


@pytest.mark.parametrize("name", list(MALFORMED))
def test_a_malformed_row_gives_the_reference_list(name):
    row = MALFORMED[name]
    trace = _clean_trace()
    rows = list(trace.events.rows())
    middle = len(rows) // 2
    trace.events.clear()
    for event in (*rows[:middle], row, *rows[middle:], row):
        trace.append_event(*event)
    problems = assert_same_problems(trace)
    assert _problems(*row) == validate_reference.validate_event(TraceEvent(*row))
    assert (problems == []) == (name in VALID)
    assert len(problems) % 2 == 0  # the row's list, twice


def test_every_malformed_row_in_one_trace_gives_the_reference_list():
    trace = _clean_trace()
    for row in MALFORMED.values():
        trace.append_event(*row)
    assert len(assert_same_problems(trace)) > len(MALFORMED)


# ----------------------------------------------------------------------
# drawn rows
# ----------------------------------------------------------------------
_ANY = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.floats(),
    st.sampled_from(["fwd", "x", None]),
)
_OF_TYPE = {
    bool: st.booleans(),
    int: st.integers(-3, 3),
    float: st.one_of(st.floats(), st.floats().map(numpy.float64)),
    str: st.just("fwd"),
}


def _valid(types):
    return st.one_of(*(_OF_TYPE[t] for t in types))


@st.composite
def _row(draw):
    """A row of a known kind (or ``nope``).  Half are valid but for the
    order of their attrs; the rest may also drop, add or repeat attrs and
    carry any value, time, stage or subnet."""
    kind = draw(st.sampled_from(sorted(EVENT_SCHEMAS) + ["nope"]))
    schema = EVENT_SCHEMAS.get(kind)
    fields = {field.name: field.types for field in schema.fields} if schema else {}
    names = draw(st.permutations(list(fields)))
    if draw(st.booleans()):
        attrs = tuple((name, draw(_valid(fields[name]))) for name in names)
        stage = 0 if schema is None or schema.stage_scoped else -1
        time = draw(st.one_of(st.integers(-9, 9), st.floats(-1e9, 1e9).map(numpy.float64)))
        return kind, time, stage, 1, attrs
    names = [name for name in names if draw(st.integers(0, 9))]
    names += draw(st.lists(st.sampled_from([*fields, "bogus"]), max_size=2))
    names = draw(st.permutations(names))
    attrs = tuple(
        (name, draw(st.one_of(_valid(fields[name]), _ANY) if name in fields else _ANY))
        for name in names
    )
    time = draw(st.one_of(st.integers(-5, 5), st.floats(), st.booleans()))
    return kind, time, draw(st.integers(-2, 2)), draw(st.integers(-2, 2)), attrs


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_row(), max_size=12))
def test_drawn_rows_give_the_reference_list(rows):
    trace = ExecutionTrace(num_gpus=2)
    for row in rows:
        trace.append_event(*row)
    assert_same_problems(trace)
    for row in rows:
        event = TraceEvent(*row)
        assert _problems(*event) == validate_reference.validate_event(event)
