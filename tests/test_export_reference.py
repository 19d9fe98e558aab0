"""The Chrome export writes each event's text straight from the trace
columns; these tests hold it to the dict-then-``compact`` exporter it
replaced (``export_reference.py``, copied verbatim), byte for byte.

Recorded runs cover what the engines, the serving plane and a fleet storm
emit; hypothesis-drawn rows cover the spellings those runs never produce:
int against float times, ``-0.0``, ints past 2**53, bools where numbers
are declared, ``numpy.float64`` attrs, NaN and the infinities, and
quotes, backslashes and non-ASCII text in names and labels.
"""

import json
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings, strategies as st

import repro.invariants as invariants
from export_reference import reference_export
from goldens import READER_RUNS, one_event_per_kind
from repro.baselines import naspipe
from repro.engines.pipeline import PipelineEngine
from repro.ft import run_fleet_scenario
from repro.obs import EVENT_SCHEMAS, export_chrome_trace, to_perfetto
from repro.obs.exporter import _INSTANTS, _SPECIAL
from repro.seeding import SeedSequenceTree
from repro.serving import ServingEngine, ServingSpec
from repro.sim.cluster import ClusterSpec
from repro.sim.trace import ExecutionTrace
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

from test_serving import SMALL_CONFIG

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

ENVELOPES = [
    {},
    {"label": "NASPipe/NLP.c2", "system": "NASPipe", "space": "NLP.c2", "batch": 32},
    {"label": 'a "quoted" \\ label — ü', "system": "s☃", "space": "x", "batch": 0},
]


def assert_same_bytes(trace, **envelope):
    text = export_chrome_trace(trace, **envelope)
    assert text == reference_export(trace, **envelope)
    assert to_perfetto(trace, **envelope) == json.loads(text)


@pytest.mark.parametrize("name", list(READER_RUNS))
def test_every_reader_run_exports_the_reference_bytes(name, tmp_path):
    result = READER_RUNS[name](tmp_path)
    assert_same_bytes(
        result.trace,
        label=f"{result.system}/{result.space}",
        system=result.system,
        space=result.space,
        batch=result.batch,
    )


@pytest.mark.parametrize("envelope", ENVELOPES)
def test_one_event_per_kind_exports_the_reference_bytes(envelope):
    assert_same_bytes(one_event_per_kind(), **envelope)


def test_the_historic_point_exports_the_reference_bytes():
    space = get_search_space("NLP.c2")
    trace = PipelineEngine(
        Supernet(space),
        SubnetStream.sample(space, SeedSequenceTree(2022), 96),
        naspipe(),
        ClusterSpec(num_gpus=8),
        batch=32,
    ).run().trace
    assert len(trace.events) == 39019
    assert_same_bytes(trace, label="historic", system="NASPipe", space="NLP.c2")


def test_an_overloaded_serving_trace_exports_the_reference_bytes():
    trace = ServingEngine(
        ServingSpec.from_payload(dict(SMALL_CONFIG, rate_rps=640.0))
    ).run().trace
    assert {"request_shed", "batch_form", "cache_hit"} <= set(trace.event_kinds())
    assert_same_bytes(trace, label="serving")


def test_a_fleet_storm_exports_the_reference_bytes(monkeypatch):
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
    assert {"job_start", "lease_revoke"} <= set(traces[0].event_kinds())
    assert "request_retry" in traces[1].event_kinds()
    for trace in traces:
        assert_same_bytes(trace, label="fleet")


# ----------------------------------------------------------------------
# drawn rows
# ----------------------------------------------------------------------
_TEXT = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00é☃\U0001f600 '), max_size=6)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TIMES = st.one_of(
    st.integers(-5, 2**60),
    _FINITE,
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), 2.0**53 + 2]),
)
_NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(),  # NaN and the infinities included
    st.sampled_from([-0.0, 2**53 + 1]),
    _FINITE.map(numpy.float64),
    st.sampled_from([numpy.float64("nan"), numpy.float64("-inf")]),
)
#: attrs the exporter casts with ``int()``
_INT_CAST = {"hits", "misses", "src", "block", "choice", "blocking_subnet"}
_DRAWN_KINDS = sorted(set(_INSTANTS) | set(_SPECIAL) | {"csp_wait_begin", "csp_wait_end"})


def _value(kind, field):
    if field.name in _INT_CAST and kind in ("cache_access", "nic_transfer", "csp_wait_begin"):
        return st.one_of(st.integers(-(2**60), 2**60), st.booleans())
    if str in field.types:
        return st.one_of(_TEXT, st.just("fwd")) if field.name == "direction" else _TEXT
    return _NUMBERS


@st.composite
def _row(draw):
    kind = draw(st.sampled_from(_DRAWN_KINDS))
    schema = EVENT_SCHEMAS[kind]
    attrs = tuple((f.name, draw(_value(kind, f))) for f in schema.fields)
    return kind, draw(_TIMES), draw(st.integers(-1, 3)), draw(st.integers(-1, 2**54)), attrs


_INTERVAL = st.tuples(
    st.integers(0, 3),
    st.one_of(st.integers(0, 2**54), _FINITE.filter(lambda t: abs(t) < 1e300)),
    st.one_of(st.integers(0, 10), st.floats(0, 1e6)),
    st.sampled_from(["fwd", "bwd", "stall"]),
    st.integers(-1, 2**54),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(_row(), max_size=12),
    intervals=st.lists(_INTERVAL, max_size=4),
    label=_TEXT,
    batch=st.one_of(st.none(), st.integers(-1, 2**60)),
)
def test_drawn_rows_export_the_reference_bytes(rows, intervals, label, batch):
    trace = ExecutionTrace(num_gpus=3)
    for row in rows:
        trace.append_event(*row)
    for gpu, start, length, kind, subnet in intervals:
        trace.record_interval(gpu, start, start + length, kind, subnet)
    text = export_chrome_trace(trace, label=label, system=label, batch=batch)
    assert text == reference_export(trace, label=label, system=label, batch=batch)
