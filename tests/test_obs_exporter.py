"""Observability layer: trace-of-the-trace reproducibility.

The exporter must be as deterministic as the runs it renders: two
identical runs produce **byte-identical** Chrome trace JSON (golden-file
double-run), every emitted event must match its declared schema, the
bubble-attribution summary must sum back to ``bubble_ratio()`` within
1e-9, and ``docs/TRACING.md`` must document every event kind the
instrumentation can emit.
"""

import json
from pathlib import Path

import pytest

from repro.baselines import gpipe, naspipe, pipedream, ssp
from repro.engines.pipeline import PipelineEngine
from repro.obs import (
    EVENT_SCHEMAS,
    bubble_attribution,
    csp_wait_windows,
    export_chrome_trace,
    run_summary,
    validate_chrome_trace,
    validate_event,
    validate_trace,
)
from repro.obs.exporter import _INSTANTS, _NOT_RENDERED, _SPECIAL
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.sim.trace import ExecutionTrace, TraceEvent
from repro.supernet.sampler import SubnetStream
from repro.supernet.supernet import Supernet

from goldens import one_event_per_kind, rendered_by_kind, to_perfetto

TRACING_DOC = Path(__file__).resolve().parents[1] / "docs" / "TRACING.md"


def _run(supernet, config, count=4, gpus=2, batch=16, seed=7):
    stream = SubnetStream.sample(supernet.space, SeedSequenceTree(seed), count)
    engine = PipelineEngine(
        supernet, stream, config, ClusterSpec(num_gpus=gpus), batch=batch
    )
    return engine.run()


# ----------------------------------------------------------------------
# golden file: the trace of a run is itself reproducible
# ----------------------------------------------------------------------
def test_two_identical_runs_export_byte_identical_json(tiny_supernet):
    first = _run(tiny_supernet, naspipe())
    second = _run(tiny_supernet, naspipe())
    text_a = export_chrome_trace(first.trace, system="NASPipe")
    text_b = export_chrome_trace(second.trace, system="NASPipe")
    assert text_a == text_b
    # and the serialisation itself is canonical (sorted keys, no floats
    # formatted differently on re-parse/re-dump)
    payload = json.loads(text_a)
    assert (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        == text_a
    )


def test_trace_export_writes_loadable_file(tiny_supernet, tmp_path):
    result = _run(tiny_supernet, naspipe())
    out = tmp_path / "run.trace.json"
    text = result.trace_export(path=out, label="unit")
    assert out.read_text() == text
    payload = json.loads(text)
    assert validate_chrome_trace(payload) == []


# ----------------------------------------------------------------------
# schema validation of every emitted event, across policies
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "config_factory", [naspipe, gpipe, pipedream, lambda: ssp(2)]
)
def test_every_emitted_event_matches_its_schema(tiny_supernet, config_factory):
    result = _run(tiny_supernet, config_factory(), count=8, gpus=2)
    assert result.trace.events, "instrumented run emitted no events"
    assert validate_trace(result.trace) == []


def test_validate_event_rejects_bad_shapes():
    ok = TraceEvent(
        kind="task_done", time=1.0, stage=0, subnet_id=3,
        attrs=(("direction", "fwd"),),
    )
    assert validate_event(ok) == []
    assert validate_event(ok._replace(kind="nope"))
    missing = TraceEvent(kind="task_done", time=1.0, stage=0, subnet_id=3)
    assert any("missing" in p for p in validate_event(missing))
    extra = TraceEvent(
        kind="task_done", time=1.0, stage=0, subnet_id=3,
        attrs=(("direction", "fwd"), ("bogus", 1)),
    )
    assert any("undeclared" in p for p in validate_event(extra))
    unscoped = TraceEvent(
        kind="task_done", time=1.0, stage=-1, subnet_id=3,
        attrs=(("direction", "fwd"),),
    )
    assert any("stage" in p for p in validate_event(unscoped))
    badtype = TraceEvent(
        kind="task_done", time=1.0, stage=0, subnet_id=3,
        attrs=(("direction", 7),),
    )
    assert any("direction" in p for p in validate_event(badtype))
    # bool is an int subclass — must still be rejected for int fields
    booled = TraceEvent(
        kind="ready_set", time=1.0, stage=0, attrs=(("size", True),),
    )
    assert any("bool" in p for p in validate_event(booled))


@pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf"), True, "1.0", None])
def test_validate_trace_rejects_a_time_that_is_not_a_finite_number(time):
    """Three ``task_done`` events at nan, inf and -5.0 used to validate
    clean.  A negative time stays legal — only finiteness is the rule
    (no stage-range or sign rule: service traces number stages by lease
    slot)."""
    trace = ExecutionTrace(num_gpus=2)
    trace.record_event("task_done", 1, stage=0, subnet_id=3, direction="fwd")
    trace.record_event("task_done", -5.0, stage=1, subnet_id=3, direction="bwd")
    assert validate_trace(trace) == []
    trace.record_event("task_done", time, stage=0, subnet_id=4, direction="fwd")
    assert validate_trace(trace) == [
        f"task_done: time must be a finite number, got {time!r}"
    ]


def test_rare_event_kinds_also_validate(small_supernet):
    # migration: on-demand operator movement (mirror_mode="migrate")
    migrate = _run(
        small_supernet, naspipe(mirror_mode="migrate"), count=12, gpus=2
    )
    assert migrate.trace.event_counts().get("migration", 0) > 0
    assert validate_trace(migrate.trace) == []
    # oom_retry: undersized cache forces the reclaim-and-retry path
    oomed = _run(
        small_supernet,
        naspipe().with_overrides(cache_subnets=0.6),
        count=12,
        gpus=2,
    )
    assert oomed.trace.event_counts().get("oom_retry", 0) > 0
    assert validate_trace(oomed.trace) == []


# ----------------------------------------------------------------------
# Chrome trace structure: required tracks, valid phases
# ----------------------------------------------------------------------
def test_chrome_trace_has_gpu_copy_and_nic_tracks(tiny_supernet):
    result = _run(tiny_supernet, naspipe(), count=8, gpus=2)
    payload = to_perfetto(result.trace, system="NASPipe")
    assert validate_chrome_trace(payload) == []
    events = payload["traceEvents"]
    process_names = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert set(process_names.values()) >= {"GPU compute", "Copy engines", "NIC"}
    by_pid = {}
    for e in events:
        if e["ph"] == "X":
            by_pid.setdefault(e["pid"], 0)
            by_pid[e["pid"]] += 1
    name_to_pid = {v: k for k, v in process_names.items()}
    for track in ("GPU compute", "Copy engines", "NIC"):
        assert by_pid.get(name_to_pid[track], 0) > 0, f"no spans on {track}"


def test_every_schema_kind_is_rendered_or_listed():
    """A kind the exporter does not know must fail here, not vanish from
    every export: the instant table, the special renderers and the
    not-rendered list partition ``EVENT_SCHEMAS``."""
    tables = (set(_INSTANTS), set(_SPECIAL), set(_NOT_RENDERED))
    assert set.union(*tables) == set(EVENT_SCHEMAS)
    assert sum(len(table) for table in tables) == len(EVENT_SCHEMAS)

    trace = one_event_per_kind()
    assert validate_trace(trace) == []
    payload = to_perfetto(trace)
    assert validate_chrome_trace(payload) == []
    # exactly one drawn event per rendered kind, none per unrendered
    # kind (rendered_by_kind raises on a second event of one kind) ...
    assert set(rendered_by_kind(payload)) == set(_INSTANTS) | set(_SPECIAL)
    # ... and the begin/end pair shows as its one wait-window span
    spans = [e for e in payload["traceEvents"] if e.get("cat") == "csp-wait"]
    assert len(spans) == 1


def test_validate_chrome_trace_flags_malformed_events():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    bad = {
        "traceEvents": [
            {"name": "x", "ph": "X", "pid": 0},  # no ts/dur/tid
            {"name": "c", "ph": "C", "pid": 0, "ts": 0, "args": {"v": "s"}},
            {"name": "i", "ph": "i", "pid": 0, "ts": 0, "s": "z"},
            {"name": "m", "ph": "M", "pid": 0, "args": {}},
            {"name": "q", "ph": "?", "pid": 0},
        ]
    }
    problems = validate_chrome_trace(bad)
    assert len(problems) >= 6


_SPAN = {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0, "dur": 2.0}
_INSTANT = {"name": "i", "ph": "i", "pid": 0, "ts": 1.0, "s": "g"}
_COUNTER = {"name": "c", "ph": "C", "pid": 0, "ts": 1.0, "args": {"v": 3}}


@pytest.mark.parametrize(
    "event, complaint",
    [
        (dict(_SPAN, ts=float("nan")), "X event without finite numeric ts"),
        (dict(_SPAN, ts=float("-inf")), "X event without finite numeric ts"),
        (dict(_SPAN, ts=True), "X event without finite numeric ts"),
        (dict(_SPAN, dur=float("inf")), "X event without finite dur >= 0"),
        (dict(_SPAN, dur=float("nan")), "X event without finite dur >= 0"),
        (dict(_SPAN, dur=False), "X event without finite dur >= 0"),
        (dict(_INSTANT, ts=True), "i event without finite numeric ts"),
        (dict(_INSTANT, ts=float("nan")), "i event without finite numeric ts"),
        (dict(_COUNTER, args={"v": float("nan")}), "C event with a non-finite series"),
        (dict(_COUNTER, args={"v": float("inf")}), "C event with a non-finite series"),
        (dict(_COUNTER, args={"v": True}), "C event with a non-finite series"),
    ],
)
def test_validate_chrome_trace_wants_finite_non_bool_numbers(event, complaint):
    """What no JSON parser reads (NaN, ±inf) and a bool posing as a
    number used to validate clean — the rule ``validate_event`` applies
    to an event's time."""
    for ok in (_SPAN, _INSTANT, _COUNTER):
        assert validate_chrome_trace({"traceEvents": [ok]}) == []
    assert validate_chrome_trace({"traceEvents": [event]}) == [
        f"traceEvents[0]: {complaint}"
    ]


@pytest.mark.parametrize("payload", [[], "trace", None, 3])
def test_validate_chrome_trace_reports_a_non_object_payload(payload):
    assert validate_chrome_trace(payload) == [
        f"payload is a {type(payload).__name__}, not an object"
    ]


# ----------------------------------------------------------------------
# bubble attribution: a decomposition, not an estimate
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "config_factory", [naspipe, gpipe, pipedream, lambda: ssp(2)]
)
@pytest.mark.parametrize("gpus", [2, 4])
def test_bubble_attribution_sums_to_bubble_ratio(
    tiny_supernet, config_factory, gpus
):
    result = _run(tiny_supernet, config_factory(), count=12, gpus=gpus)
    trace = result.trace
    stages = bubble_attribution(trace)
    assert len(stages) == gpus
    for stage in stages:
        total = (
            stage.startup_ms
            + stage.fetch_stall_ms
            + stage.csp_wait_ms
            + stage.drain_ms
            + stage.other_idle_ms
        )
        assert total == pytest.approx(stage.idle_ms, abs=1e-9)
        assert stage.startup_ms >= 0 and stage.drain_ms >= 0
        assert stage.fetch_stall_ms >= 0 and stage.csp_wait_ms >= 0
    summary = run_summary(result)
    attributed = sum(summary["bubble_attribution"].values())
    assert attributed == pytest.approx(trace.bubble_ratio(), abs=1e-9)


def test_csp_wait_windows_pair_up(tiny_supernet):
    result = _run(tiny_supernet, naspipe(), count=16, gpus=4)
    trace = result.trace
    begins = len(list(trace.events_of("csp_wait_begin")))
    windows = csp_wait_windows(trace)
    assert sum(len(w) for w in windows.values()) == begins
    for stage, stage_windows in windows.items():
        for window in stage_windows:
            assert window.end >= window.start
            assert window.stage == stage
            assert window.blocking_subnet < window.blocked


# ----------------------------------------------------------------------
# docs: TRACING.md documents every emittable / emitted kind
# ----------------------------------------------------------------------
def test_tracing_doc_covers_every_schema_kind():
    doc = TRACING_DOC.read_text()
    undocumented = [kind for kind in EVENT_SCHEMAS if f"`{kind}`" not in doc]
    assert undocumented == [], (
        f"docs/TRACING.md is missing event kinds: {undocumented}"
    )


def test_tracing_doc_covers_every_kind_actually_emitted(tiny_supernet):
    doc = TRACING_DOC.read_text()
    emitted = set()
    for factory in (naspipe, gpipe, pipedream, lambda: ssp(2)):
        result = _run(tiny_supernet, factory(), count=8, gpus=2)
        emitted |= set(result.trace.event_counts())
    assert emitted <= set(EVENT_SCHEMAS)
    missing = [kind for kind in sorted(emitted) if f"`{kind}`" not in doc]
    assert missing == [], f"docs/TRACING.md is missing emitted kinds: {missing}"


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_cli_trace_exports_and_summarises(tmp_path, capsys):
    from repro.cli import main

    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "space": "NLP.c3",
                "system": "NASPipe",
                "num_gpus": 2,
                "subnets": 4,
                "batch": 16,
                "seed": 7,
            }
        )
    )
    out = tmp_path / "run.trace.json"
    assert main(["trace", str(config), "--out", str(out), "--summary"]) == 0
    captured = capsys.readouterr().out
    assert "bubble attribution" in captured
    payload = json.loads(out.read_text())
    assert validate_chrome_trace(payload) == []
