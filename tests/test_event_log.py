"""The column store behind ``ExecutionTrace.events``.

``EventLog`` must read exactly like the ``list[TraceEvent]`` it replaced,
so the oracle here *is* that list: every operation is applied to both
and everything a caller can observe is compared — by ``repr`` wherever
values are involved, so a column that turned ``True`` into ``1`` or an
``int`` time into a ``float`` would show.
"""

import copy
import dataclasses
import pickle

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.baselines import naspipe  # noqa: E402
from repro.engines.pipeline import PipelineEngine  # noqa: E402
from repro.obs import (  # noqa: E402
    critical_path_breakdown,
    export_chrome_trace,
    run_summary,
    what_if_report,
)
from repro.obs.telemetry import replay_telemetry  # noqa: E402
from repro.seeding import SeedSequenceTree  # noqa: E402
from repro.serving import ServingEngine, ServingSpec  # noqa: E402
from repro.sim.cluster import ClusterSpec  # noqa: E402
from repro.sim.trace import EventLog, ExecutionTrace, TraceEvent  # noqa: E402
from repro.supernet.sampler import SubnetStream  # noqa: E402
from repro.supernet.search_space import get_search_space  # noqa: E402
from repro.supernet.supernet import Supernet  # noqa: E402

from test_serving import SMALL_CONFIG  # noqa: E402
from readback_reference import events_of  # noqa: E402

_KINDS = ("task_done", "eviction", "ready_set")
#: atoms whose ``==`` hides what ``repr`` shows: True/1/1.0, 0/0.0/False, -1
_ATOMS = st.sampled_from([True, False, 0, 0.0, 1, 1.0, -1, 2.5, "fwd"])
_ATTRS = st.lists(st.tuples(st.sampled_from(["a", "b", "size"]), _ATOMS), max_size=3).map(tuple)
_FIELDS = st.tuples(
    st.sampled_from(_KINDS),
    st.sampled_from([0, 0.0, 1, 1.5, 7, 7.25]),  # int times stay ints
    st.integers(-1, 3),
    st.integers(-1, 3),
    _ATTRS,
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append_event"), _FIELDS),
        st.tuples(st.just("record_event"), _FIELDS),
        st.tuples(st.just("append"), _FIELDS),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=30,
)


def _log_of(rows) -> EventLog:
    log = EventLog()
    for row in rows:
        log.append(row)
    return log


def _same_reads(trace: ExecutionTrace, oracle: list, probe: TraceEvent) -> None:
    log = trace.events
    assert len(log) == len(oracle) and bool(log) == bool(oracle)
    assert repr(log) == repr(oracle) == repr(list(log))
    assert repr(list(log.rows())) == repr([tuple(event) for event in oracle])
    for index in range(-len(oracle), len(oracle)):
        assert repr(log[index]) == repr(oracle[index]) and type(log[index]) is TraceEvent
    for beyond in (len(oracle), -len(oracle) - 1):
        with pytest.raises(IndexError):
            log[beyond]
    for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, 2), slice(5, 2)):
        assert repr(log[cut]) == repr(oracle[cut]) and type(log[cut]) is list
    # == both ways: against a list, against another log (column-wise)
    assert log == oracle and oracle == log and not log != oracle
    assert log != oracle + [probe] and oracle + [probe] != log
    assert log == _log_of(oracle) and _log_of(oracle) == log
    assert log != _log_of(oracle + [probe]) and _log_of(oracle + [probe]) != log
    for field in TraceEvent._fields if oracle else ():  # one column differs, in one row
        moved = oracle[:-1] + [oracle[-1]._replace(**{field: "moved"})]
        assert log != moved and log != _log_of(moved) and _log_of(moved) != log
    assert (probe in log) == (probe in oracle) and all(event in log for event in oracle)
    assert repr(list(reversed(log))) == repr(oracle[::-1])
    assert repr(list(events_of(trace, "eviction", "ready_set"))) == repr(
        [event for event in oracle if event.kind in ("eviction", "ready_set")]
    )
    assert list(events_of(trace)) == []
    kinds = sorted({event.kind for event in oracle})
    assert list(trace.event_counts()) == kinds
    assert trace.event_counts() == {
        kind: sum(event.kind == kind for event in oracle) for kind in kinds
    }


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, probe=_FIELDS)
def test_event_log_reads_like_the_list_of_rows_it_replaced(ops, probe):
    trace, oracle = ExecutionTrace(4), []
    for op, fields in ops:
        if op == "clear":
            trace.events.clear(), oracle.clear()
        elif op == "append_event":
            trace.append_event(*fields)
            oracle.append(TraceEvent(*fields))
        elif op == "record_event":
            kind, time, stage, subnet_id, attrs = fields
            attrs = dict(attrs)  # kwargs cannot repeat a key
            trace.record_event(kind, time, stage, subnet_id, **attrs)
            oracle.append(TraceEvent(kind, time, stage, subnet_id, tuple(attrs.items())))
        elif len(oracle) % 2:
            trace.events.append(TraceEvent(*fields))
            oracle.append(TraceEvent(*fields))
        else:
            trace.events.append(fields)  # any 5-tuple is a row
            oracle.append(TraceEvent(*fields))
        _same_reads(trace, oracle, TraceEvent(*probe))
    with pytest.raises(TypeError):
        hash(trace.events)
    with pytest.raises(TypeError):
        trace.events.append(("task_done", 1.0))
    assert len(trace.events) == len(oracle)


def test_record_event_defaults_and_foreign_comparisons():
    trace = ExecutionTrace(1)
    trace.record_event("sim_quiescent", 3)
    assert trace.events[0] == TraceEvent("sim_quiescent", 3) == ("sim_quiescent", 3, -1, -1, ())
    assert repr(trace.events) == "[TraceEvent(kind='sim_quiescent', time=3, stage=-1, subnet_id=-1, attrs=())]"
    assert trace.events != tuple(trace.events) and trace.events != None  # noqa: E711
    assert EventLog() == [] and EventLog() == EventLog()


# ----------------------------------------------------------------------
# listeners see rows, in emission order
# ----------------------------------------------------------------------
def test_listener_gets_the_stored_row_even_for_events_it_emits_itself():
    trace = ExecutionTrace(2)
    trace.record_event("sim_quiescent", 0.0)
    trace.append_event("ready_set", 1.0, 0, -1, (("size", 1),))
    heard = []

    def listener(event):
        assert type(event) is TraceEvent
        # stored before anyone is told: the row is already the last one
        assert event == trace.events[-1] and repr(event) == repr(trace.events[-1])
        heard.append(event)
        if event.kind == "task_done":
            trace.record_event("health_report", event.time, scope="stage", index=event.stage)

    trace.listeners.append(listener)  # attached mid-run: two events already in
    trace.append_event("task_done", 2, 1, 5, (("direction", "fwd"),))
    trace.record_event("ready_set", 3.0, stage=1, size=True)
    assert heard == trace.events[2:] and repr(heard) == repr(trace.events[2:])
    assert [event.kind for event in trace.events[2:]] == ["task_done", "health_report", "ready_set"]
    assert heard[0].time == 2 and type(heard[0].time) is int and heard[2].attr("size") is True


def test_listener_attached_mid_run_hears_the_rest_of_the_stream(tiny_supernet):
    stream = SubnetStream.sample(tiny_supernet.space, SeedSequenceTree(11), 12)
    engine = PipelineEngine(tiny_supernet, stream, naspipe(), ClusterSpec(num_gpus=4), batch=32)
    heard = []
    engine.sim.schedule(40.0, lambda: engine.trace.listeners.append(heard.append))
    engine.run()
    missed = len(engine.trace.events) - len(heard)
    assert 0 < missed < len(engine.trace.events)
    assert heard == engine.trace.events[missed:]
    assert all(type(event) is TraceEvent for event in heard)


# ----------------------------------------------------------------------
# readers: the column store against the row store it replaced
# ----------------------------------------------------------------------
class _RowList(list):
    """``ExecutionTrace.events`` as it was stored before ``EventLog``: one
    resident :class:`TraceEvent` per event.  Kept here as the oracle."""

    def rows(self):
        return iter(self)


for _index, _field in enumerate(TraceEvent._fields):  # the five "columns", derived
    setattr(_RowList, _field, property(lambda self, i=_index: [row[i] for row in self]))


def _row_backed(trace: ExecutionTrace) -> ExecutionTrace:
    return dataclasses.replace(trace, events=_RowList(trace.events))


def _trace_readers(trace: ExecutionTrace):
    return (
        critical_path_breakdown(trace),
        what_if_report(trace),
        export_chrome_trace(trace, label="t", system="s", space="x", batch=8),
        replay_telemetry(trace).registry.snapshot(),
        trace.event_counts(),
    )


def test_readers_agree_with_the_row_store_on_the_historic_point():
    space = get_search_space("NLP.c2")
    result = PipelineEngine(
        Supernet(space),
        SubnetStream.sample(space, SeedSequenceTree(2022), 96),
        naspipe(),
        ClusterSpec(num_gpus=8),
        batch=32,
    ).run()
    assert len(result.trace.events) == 39019
    oracle = dataclasses.replace(result, trace=_row_backed(result.trace))
    assert type(oracle.trace.events) is _RowList and oracle.trace == result.trace
    assert run_summary(result) == run_summary(oracle)
    assert result.telemetry().registry.snapshot() == oracle.telemetry().registry.snapshot()
    assert _trace_readers(result.trace) == _trace_readers(oracle.trace)


def test_readers_agree_with_the_row_store_on_a_serving_scenario():
    # overloaded, so sheds, retries and cancellations are in the stream too
    payload = dict(SMALL_CONFIG, rate_rps=640.0)
    trace = ServingEngine(ServingSpec.from_payload(payload)).run().trace
    assert {"request_shed", "batch_form", "cache_access"} <= set(trace.event_counts())
    assert _trace_readers(trace) == _trace_readers(_row_backed(trace))


# ----------------------------------------------------------------------
# a trace is still plain data
# ----------------------------------------------------------------------
def test_pickle_and_deepcopy_round_trip_a_trace():
    trace = ExecutionTrace(2)
    trace.record_interval(0, 0.0, 1.5, "fwd", 3)
    trace.append_event("task_done", 1, 0, 3, (("direction", "fwd"),))
    trace.record_event("ready_set", 2.0, stage=1, size=True)
    trace.record_subnet_complete(3, 2.0)
    trace.record_cache_access(True, 4)
    for clone in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
        assert clone == trace and clone is not trace
        assert type(clone.events) is EventLog and clone.events is not trace.events
        assert repr(clone) == repr(trace)
        clone.record_event("ready_set", 3.0, stage=0, size=0)
        assert clone != trace and len(trace.events) == 3
