"""One reading of a config (``repro.payload``) on every plane.

Each plane's config goes through the same reader, so the same mistakes
— an unknown key, an unknown override field, an unknown system, an
unknown stream kind — end in the same :class:`ConfigError`, with the
path of the offending entry and the accepted values, wherever they are
made.  The second half pins what the reader replaced: every default is
the dataclass's or the constructor's, every value is checked against its
field's declared type and never cast, and the solo-baseline rule is one
function.
"""

import dataclasses
import json
import math
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro import SearchSpace, SystemConfig, payload
from repro.baselines.systems import _FACTORIES, resolve_target
from repro.cli import ChaosConfig, FaultsConfig, TraceConfig, main
from repro.errors import ConfigError, ReproducibilityError, SearchSpaceError, ServiceError
from repro.experiments.common import ExperimentScale, make_stream
from repro.ft import FaultEvent, FaultSchedule, JobMemo, fleet_sweep
from repro.ft.fleet import FleetConfig
from repro.nas import SupernetTrainer
from repro.obs.telemetry.alerts import AlertRule, BurnWindow
from repro.replay import RunManifest, record_run
from repro.service import (
    ClusterManager,
    JobScheduler,
    JobSpec,
    run_service,
    solo_verdict,
)
from repro.service.scheduler import SchedulerKnobs, ServiceConfig
from repro.serving import BatchPolicy, ServingEngine, ServingSpec, WorkloadSpec
from repro.serving.frontend import _RENAME
from repro.sim.cluster import ClusterSpec

SCHEDULER_KNOBS = tuple(payload.accepted(SchedulerKnobs))
TINY = {"num_blocks": 4, "functional_width": 8}
JOB = {
    "name": "a",
    "space": "NLP.c1",
    "space_overrides": TINY,
    "subnets": 4,
    "max_gpus": 2,
}
SERVING = {"space": "NLP.c3", "space_overrides": TINY, "num_gpus": 2, "requests": 8}
RUN = {"space": "NLP.c3", "space_overrides": TINY, "subnets": 4, "num_gpus": 2}


@dataclasses.dataclass(frozen=True)
class _Switch:
    """A bool-defaulted field for the reader's cast rule (no plane's
    config has one)."""

    on: bool = True


def _service(job):
    return run_service({"total_gpus": 2, "jobs": [{**JOB, **job}]})


def _serving(extra):
    return ServingEngine(ServingSpec.from_payload({**SERVING, **extra}))


def _fleet(extra=(), job=(), serving=()):
    return fleet_sweep(
        {
            "fleet_slots": [4],
            "scenarios": 1,
            "serving": {**SERVING, **dict(serving)},
            "jobs": [{**JOB, **dict(job)}],
            **dict(extra),
        }
    )


def _cli(command):
    def run(config, tmp_path):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({**RUN, **config}))
        flags = ["--out", str(tmp_path / "out.json")] if command == "trace" else []
        return main([command, str(path), *flags])

    return run


#: config key → the record_run argument that carries it
_RECORD_RUN = {
    "space_overrides": "space_overrides",
    "system": "system_name",
    "overrides": "system_overrides",
}


def _manifest(system_name="NASPipe", space_overrides=TINY, **kwargs):
    return record_run(
        "NLP.c3",
        system_name,
        space_overrides=space_overrides,
        num_gpus=2,
        steps=2,
        **kwargs,
    )


# ----------------------------------------------------------------------
# an unknown key: the path, the key, the accepted set
# ----------------------------------------------------------------------
#: reader(extra keys, tmp_path) → (the path the error names, one accepted key)
UNKNOWN_KEY = {
    "job": (lambda x, _: JobSpec.from_payload({**JOB, **x}, "jobs[3]"), "jobs[3]", "stream_kind"),
    "serving": (lambda x, _: ServingSpec.from_payload(x), "serving", "rate_rps"),
    "fault": (
        lambda x, _: FaultSchedule.from_payload(
            [{"kind": "copy_stall", "time_ms": 1.0}, {"kind": "copy_stall", "time_ms": 2.0, **x}]
        ),
        "fault event 1",
        "duration_ms",
    ),
    "alert": (lambda x, _: AlertRule.from_payload({"name": "r", "metric": "m", **x}), "alert rule 'r'", "for_ms"),
    "service": (lambda x, _: run_service({"jobs": [JOB], **x}), "service config", "quantum"),
    "fleet": (lambda x, _: _fleet(x), "fleet config", "slots_per_node"),
    "trace": (_cli("trace"), "run config", "label"),
    "analyze": (_cli("analyze"), "run config", "stream_kind"),
    "faults": (_cli("faults"), "faults config", "mtbf_ms"),
    "chaos": (_cli("chaos"), "chaos config", "nic_slowdown"),
}


@pytest.mark.parametrize("reader", UNKNOWN_KEY)
def test_unknown_key_names_path_key_and_accepted_set(reader, tmp_path):
    read, path, accepted = UNKNOWN_KEY[reader]
    with pytest.raises(ConfigError) as exc:
        read({"bogus_key": 1}, tmp_path)
    message = str(exc.value)
    assert message.startswith(f"{path}: unknown keys ['bogus_key']; expected a subset of [")
    assert repr(accepted) in message


def test_trace_config_typo_is_rejected_not_defaulted(tmp_path):
    # at the parent {"subnet": 100} quietly ran the default 24 subnets
    with pytest.raises(ConfigError, match=r"run config: unknown keys \['subnet'\].*'subnets'"):
        _cli("trace")({"subnet": 100}, tmp_path)


def test_chaos_config_has_no_degradation_switch(tmp_path):
    # a chaos sweep always arms mitigation; the key that could not turn
    # it off is gone, so a config still carrying it is refused
    with pytest.raises(ConfigError) as exc:
        _cli("chaos")({"degradation": True}, tmp_path)
    message = str(exc.value)
    assert message.startswith("chaos config: unknown keys ['degradation']; expected a subset of [")
    assert "'nic_slowdown'" in message


# ----------------------------------------------------------------------
# a payload that is not an object
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "value, type_name",
    [("abc", "str"), (5, "int"), (["a"], "list"), (None, "NoneType"), (True, "bool")],
)
def test_a_payload_that_is_not_an_object_is_named_as_such(value, type_name):
    # at the parent "abc" read as the keys a, b, c and ["a"] passed
    with pytest.raises(ConfigError) as exc:
        payload.reject_unknown(value, ("a",), "jobs[0]")
    assert str(exc.value) == f"jobs[0] must be an object, got {type_name}"


#: every reader that takes an object from a config → (read it, its path)
NOT_AN_OBJECT = {
    "run config": (lambda value, tmp: _config_file(value, tmp), "run config"),
    "overrides": (lambda value, tmp: _cli("trace")({"overrides": value}, tmp), "run config.overrides"),
    "space_overrides": (
        lambda value, tmp: _cli("trace")({"space_overrides": value}, tmp),
        "run config.space_overrides",
    ),
    "fleet": (lambda value, _: fleet_sweep(value), "fleet config"),
    "service": (lambda value, _: run_service(value), "service config"),
    "job": (lambda value, _: JobSpec.from_payload(value, "jobs[3]"), "jobs[3]"),
    "alert rule": (lambda value, _: AlertRule.from_payload(value), "alert rule"),
}


def _config_file(value, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(value))
    return main(["trace", str(path), "--out", str(tmp_path / "out.json")])


@pytest.mark.parametrize("reader", NOT_AN_OBJECT)
@pytest.mark.parametrize("value, type_name", [("ab", "str"), (5, "int")])
def test_every_reader_refuses_a_payload_that_is_not_an_object(reader, value, type_name, tmp_path):
    # at the parent "ab" failed as "unknown keys ['a', 'b']" and 5 as an
    # untyped TypeError
    read, path = NOT_AN_OBJECT[reader]
    with pytest.raises(ConfigError) as exc:
        read(value, tmp_path)
    assert str(exc.value) == f"{path} must be an object, got {type_name}"


# ----------------------------------------------------------------------
# what a config trains: override fields, system, stream kind
# ----------------------------------------------------------------------
#: config → (reader of {key: value}, the path prefix its errors carry)
TARGETS = {
    "job": (lambda x, _: _service(x), "jobs[0]"),
    "serving": (lambda x, _: _serving(x), "serving"),
    "fleet job": (lambda x, _: _fleet(job=x), "jobs[0]"),
    "fleet serving": (lambda x, _: _fleet(serving=x), "serving"),
    "trace": (_cli("trace"), "run config"),
    "analyze": (_cli("analyze"), "run config"),
    "faults": (_cli("faults"), "faults config"),
    "chaos": (_cli("chaos"), "chaos config"),
    "manifest": (lambda x, _: _manifest(**{_RECORD_RUN[k]: v for k, v in x.items()}), "manifest"),
}
#: mistake → (key, value, what follows the path in the message)
MISTAKES = {
    "space field": (
        "space_overrides",
        {"bogus": 1},
        ".space_overrides: unknown keys ['bogus']; expected a subset of [",
    ),
    "system field": (
        "overrides",
        {"bogus": 1},
        ".overrides: unknown keys ['bogus']; expected a subset of [",
    ),
    "system": ("system", "Foo", ".system: unknown system 'Foo'; known: ['GPipe', 'NASPipe'"),
}


@pytest.mark.parametrize(
    "config, mistake",
    [
        (config, mistake)
        for config in TARGETS
        for mistake in MISTAKES
        # a serving config names a space only
        if "serving" not in config or mistake == "space field"
    ],
)
def test_unknown_override_or_system_is_a_config_error(config, mistake, tmp_path):
    read, path = TARGETS[config]
    key, value, expected = MISTAKES[mistake]
    with pytest.raises(ConfigError) as exc:
        read({key: value}, tmp_path)
    assert str(exc.value).startswith(path + expected)


@pytest.mark.parametrize(
    "train, error",
    [
        (lambda: _service({"stream_kind": "evolution"}), ConfigError),
        (lambda: _manifest(stream_kind="evolution"), ConfigError),
        (
            lambda: make_stream("NLP.c3", ExperimentScale(subnets=2, stream_kind="evolution")),
            ConfigError,
        ),
        # the trainer validates at construction, with the error it always raised
        (lambda: SupernetTrainer("NLP.c3", stream_kind="evolution"), ValueError),
    ],
    ids=["job", "manifest", "scale", "trainer"],
)
def test_unknown_stream_kind_never_trains_spos(train, error):
    with pytest.raises(error) as exc:
        train()
    if error is ConfigError:
        assert "['spos', 'generational', 'fair']" in str(exc.value)
        assert "'evolution'" in str(exc.value)


def test_fair_streams_are_offered_wherever_a_kind_is_read():
    fair = make_stream("NLP.c3", ExperimentScale(subnets=3, stream_kind="fair"))
    trainer = SupernetTrainer("NLP.c3", seed=2022, stream_kind="fair")
    assert [s.choices for s in fair] == [s.choices for s in trainer.make_stream(3)]


# ----------------------------------------------------------------------
# defaults are written once
# ----------------------------------------------------------------------
def test_serving_defaults_are_the_dataclass_defaults():
    assert ServingSpec.from_payload({}) == ServingSpec()
    assert set(payload.accepted(ServingSpec, (("requests", "num_requests"),))) == {
        "requests" if f.name == "num_requests" else f.name
        for cls in (ServingSpec, WorkloadSpec, BatchPolicy)
        for f in dataclasses.fields(cls)
        if f.name not in ("workload", "policy")
    }


def test_ints_given_for_float_fields_arrive_as_floats():
    # run_bench echoes the spec into a report whose sha256 is a golden
    rate = ServingSpec.from_payload({"rate_rps": 30}).workload.rate_rps
    assert rate == 30.0 and type(rate) is float
    spec = JobSpec.from_payload({**JOB, "submit_ms": 5, "subnets": 4})
    assert type(spec.submit_ms) is float and type(spec.subnets) is int
    # a float is not an int, however integral
    with pytest.raises(ConfigError, match=r"job: subnets must be an integer >= 1, got 4\.0"):
        JobSpec.from_payload({**JOB, "subnets": 4.0})
    # a bool default is not an int default
    assert payload.build(_Switch, {"on": False}, "switch").on is False
    with pytest.raises(ConfigError, match="serving: rate_rps must be a finite number, got 'fast'"):
        ServingSpec.from_payload({"rate_rps": "fast"})


# ----------------------------------------------------------------------
# a value is checked against its field's declared type, never cast
# ----------------------------------------------------------------------
def _built(cls, base, path):
    """A ``_TYPED_READERS`` row for a config ``payload.build`` reads as
    ``cls`` from ``base`` and the drawn key."""
    return cls, (), lambda x, _: payload.build(cls, {**base, **x}, path), path


#: a manifest as ``to_json`` writes it: a record, every key present
_MANIFEST = json.loads(RunManifest("NLP.c3", "NASPipe").to_json())
#: a reader of one class's fields → (the class, its rename, read({key:
#: value}) with the system an ``overrides`` entry applies to, the path)
_TYPED_READERS = {
    "serving": (ServingSpec, _RENAME, lambda x, _: ServingSpec.from_payload(x), "serving"),
    "job": (JobSpec, (), lambda x, _: JobSpec.from_payload({**JOB, **x}, "jobs[0]"), "jobs[0]"),
    "fault": (
        FaultEvent,
        (),
        lambda x, _: FaultSchedule.from_payload([{"kind": "copy_stall", "time_ms": 1.0, **x}]),
        "fault event 0",
    ),
    "space_overrides": (
        SearchSpace,
        (),
        lambda x, _: resolve_target("NLP.c3", x, path="config"),
        "config.space_overrides",
    ),
    "overrides": (
        SystemConfig,
        (),
        lambda x, system: resolve_target("NLP.c3", None, system, x, path="config"),
        "config.overrides",
    ),
    "manifest": (
        RunManifest,
        (),
        lambda x, _: RunManifest.from_json(json.dumps({**_MANIFEST, **x})),
        "manifest",
    ),
    "trace": _built(TraceConfig, RUN, "run config"),
    "faults": _built(FaultsConfig, RUN, "faults config"),
    "chaos": _built(ChaosConfig, RUN, "chaos config"),
    "service": _built(ServiceConfig, {"jobs": [JOB]}, "service config"),
    "fleet": _built(FleetConfig, {"serving": SERVING, "jobs": [JOB]}, "fleet config"),
    "alert rule": _built(AlertRule, {"name": "r", "metric": "m"}, "alert rule 'r'"),
    "burn window": _built(BurnWindow, {"window_ms": 10.0}, "alert rule 'r'.windows[0]"),
}
_NUMERIC_TEXT = st.integers(-9, 99).map(str) | st.floats(-9, 99).map(repr)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
#: a JSON type → values of another type (``null`` is drawn separately)
_WRONG = {
    "int": st.booleans() | st.floats() | st.integers(-9, 99).map(float) | _NUMERIC_TEXT,
    "number": st.booleans() | _NON_FINITE | _NUMERIC_TEXT | st.just([1.0]),
    "bool": st.integers(0, 1) | st.floats(0, 1) | st.sampled_from(["true", "false", "no"]),
    "str": st.integers() | st.booleans() | st.floats() | st.just(["NLP.c3"]),
    "object": st.integers() | st.booleans() | _NUMERIC_TEXT | st.just([]),
    "array": st.integers() | st.booleans() | _NUMERIC_TEXT | st.just({}),
}
#: a JSON type → values of it
_RIGHT = {
    "int": st.integers(-3, 64),
    "number": st.integers(-3, 64) | st.floats(-1e3, 1e3),
    "bool": st.booleans(),
    "str": st.text(max_size=6) | st.sampled_from(["NLP.c1", "NASPipe", "csp", "copy_stall"]),
    "object": st.just({}),
    "array": st.just([]),
}


def _json_types(cls, rename=()):
    """Payload key → (JSON type, may it be null), read here from the
    annotations of ``cls`` and of the dataclasses it nests."""
    spelled = {name: key for key, name in rename}
    types = {}
    for name, hint in typing.get_type_hints(cls).items():
        nullable = type(None) in typing.get_args(hint)
        hint = typing.get_args(hint)[0] if nullable else hint
        if dataclasses.is_dataclass(hint):
            types.update(_json_types(hint, rename))
        else:
            kinds = {int: "int", float: "number", bool: "bool", str: "str", list: "array"}
            kind = kinds.get(typing.get_origin(hint) or hint, "object")
            types[spelled.get(name, name)] = (kind, nullable)
    return types


@settings(max_examples=400, deadline=None)
@given(
    reader=st.sampled_from(sorted(_TYPED_READERS)),
    system=st.sampled_from(sorted(_FACTORIES)),
    right=st.booleans(),
    data=st.data(),
)
def test_every_config_value_is_checked_against_its_field_type(reader, system, right, data):
    # at the parent ``2.5`` read as 2, ``"4"`` as 4 and ``true`` as 1 for
    # an int field; overrides were not checked at all, so ``"no"`` turned
    # the predictor on and ``"3"`` ended in a TypeError mid-run
    cls, rename, read, path = _TYPED_READERS[reader]
    types = _json_types(cls, rename)
    assert set(types) == set(payload.accepted(cls, rename))
    key = data.draw(st.sampled_from(sorted(types)), label="key")
    kind, nullable = types[key]
    if right:
        value = data.draw(_RIGHT[kind] | (st.none() if nullable else st.nothing()), label="value")
        try:
            read({key: value}, system)
        except (ConfigError, ServiceError, SearchSpaceError, ReproducibilityError):
            pass  # a range or cross-field rule of the class, a name lookup, a version
        return
    value = data.draw(_WRONG[kind] | (st.nothing() if nullable else st.none()), label="value")
    with pytest.raises(ConfigError) as exc:
        read({key: value}, system)
    assert str(exc.value).startswith(f"{path}: {key} must be "), str(exc.value)


def test_an_int_is_read_as_a_float_only_where_the_field_is_one():
    fields = payload.checked(SystemConfig, {"cache_subnets": 2, "staleness": 2}, "overrides")
    assert fields == {"cache_subnets": 2.0, "staleness": 2}
    assert type(fields["cache_subnets"]) is float and type(fields["staleness"]) is int
    assert payload.checked(SystemConfig, {"inject_window": None}, "o") == {"inject_window": None}
    assert payload.accepted(SystemConfig)["inject_window"][1] == "int|null"


def _alert(**rule):
    return AlertRule.from_payload({"name": "r", "metric": "fleet_down_slots", **rule})


def _burn(**rule):
    return AlertRule.from_payload(
        {"name": "r", "kind": "burn_rate", "good": "g", "bad": "b", "windows": [{"window_ms": 10}], **rule}
    )


#: (read a config holding the bad value, the path, the key) — each ran at
#: the parent: ``"scenarios": true`` swept one storm and printed PASS,
#: ``"verify_solo": "false"`` ran the verification, a threshold of
#: ``"5"`` was 5.0 and a window of -5 ms was -5.0
_BARE_READS = {
    "fleet_slots entry": (lambda: _fleet({"fleet_slots": [4, 0]}), "fleet config", "fleet_slots[1]"),
    "fleet_slots float": (lambda: _fleet({"fleet_slots": [2.5]}), "fleet config", "fleet_slots[0]"),
    "scenarios bool": (lambda: _fleet({"scenarios": True}), "fleet config", "scenarios"),
    "scenarios zero": (lambda: _fleet({"scenarios": 0}), "fleet config", "scenarios"),
    "seed": (lambda: _fleet({"seed": 7.5}), "fleet config", "seed"),
    "storm_mtbf_fraction": (
        lambda: _fleet({"storm_mtbf_fraction": 0}),
        "fleet config",
        "storm_mtbf_fraction",
    ),
    "node_down_weight": (lambda: _fleet({"node_down_weight": "0.2"}), "fleet config", "node_down_weight"),
    "preempt_outage_ms": (
        lambda: _fleet({"preempt_outage_ms": math.nan}),
        "fleet config",
        "preempt_outage_ms",
    ),
    "node_outage_ms": (lambda: _fleet({"node_outage_ms": True}), "fleet config", "node_outage_ms"),
    "fleet knob": (lambda: _fleet({"quantum": 6.9}), "fleet config", "quantum"),
    "total_gpus": (lambda: _service_config({"total_gpus": 2.5}), "service config", "total_gpus"),
    "total_gpus zero": (lambda: _service_config({"total_gpus": 0}), "service config", "total_gpus"),
    "verify_solo": (lambda: _service_config({"verify_solo": "false"}), "service config", "verify_solo"),
    "max_restarts": (lambda: _service_config({"max_restarts": True}), "service config", "max_restarts"),
    "threshold": (lambda: _alert(threshold="5"), "alert rule 'r'", "threshold"),
    "for_ms bool": (lambda: _alert(for_ms=True), "alert rule 'r'", "for_ms"),
    "for_ms nan": (lambda: _alert(for_ms=math.nan), "alert rule 'r'", "for_ms"),
    "objective": (lambda: _burn(objective="0.9"), "alert rule 'r'", "objective"),
    "window_ms": (lambda: _burn(windows=[{"window_ms": -5}]), "alert rule 'r'.windows[0]", "window_ms"),
    "factor": (
        lambda: _burn(windows=[{"window_ms": 10, "factor": True}]),
        "alert rule 'r'.windows[0]",
        "factor",
    ),
}


def _service_config(extra):
    return run_service({"total_gpus": 2, "jobs": [JOB], **extra})


@pytest.mark.parametrize("case", sorted(_BARE_READS))
def test_a_reader_outside_the_dataclasses_checks_before_it_runs(case):
    read, path, key = _BARE_READS[case]
    with pytest.raises(ConfigError) as exc:
        read()
    assert str(exc.value).startswith(f"{path}: {key} must be ")


def test_job_spec_keys_are_its_fields():
    assert list(payload.accepted(JobSpec)) == [f.name for f in dataclasses.fields(JobSpec)]
    assert JobSpec.from_payload({"name": "a", "space": "NLP.c1"}) == JobSpec("a", "NLP.c1")


def _configured_scheduler(manager, config):
    """The scheduler a service config describes, as ``run_service`` builds it."""
    knobs = payload.build(ServiceConfig, {"jobs": [JOB], **config}, "service config").scheduler
    return JobScheduler(manager, **vars(knobs))


def test_scheduler_defaults_are_the_constructor_defaults():
    manager = ClusterManager(ClusterSpec(num_gpus=4))
    default, built = JobScheduler(manager), _configured_scheduler(manager, {})
    for knob in SCHEDULER_KNOBS:
        assert getattr(built, knob) == getattr(default, knob), knob
    # other keys of the config are not the scheduler's to read, and
    # values are checked against the constructor's types
    tuned = _configured_scheduler(manager, {"quantum": 3, "resize_cost_ms": 10, "total_gpus": 4})
    assert (tuned.quantum, type(tuned.quantum)) == (3, int)
    assert (tuned.resize_cost_ms, type(tuned.resize_cost_ms)) == (10.0, float)
    assert tuned.slots_per_node == default.slots_per_node
    with pytest.raises(ConfigError, match=r"service config: quantum must be an integer >= 1, got 3\.0"):
        _configured_scheduler(manager, {"quantum": 3.0})


# ----------------------------------------------------------------------
# the solo baseline
# ----------------------------------------------------------------------
def test_solo_gpu_rule_and_memo():
    spec = JobSpec.from_payload({**JOB, "max_gpus": 3})
    row = dict(status="done", elastic=True, segments=[{"gpus": 1}], digest=None, losses={})
    memo = JobMemo()
    # elastic: the cap — min(max_gpus, fleet, num_blocks) — whatever it ran on
    assert solo_verdict(spec, row, 8, memo)["solo_gpus"] == 3
    assert solo_verdict(spec, row, 2, memo)["solo_gpus"] == 2
    assert solo_verdict(spec, dict(row, elastic=False), 8, memo)["solo_gpus"] == 1
    assert len(memo.solo) == 3
    wide = dataclasses.replace(spec, max_gpus=8)
    assert solo_verdict(wide, row, 8, memo)["solo_gpus"] == TINY["num_blocks"]
    # the memo is keyed by job and GPU count: asking again runs nothing
    before = dict(memo.solo)
    verdict = solo_verdict(spec, row, 8, memo)
    assert memo.solo == before and verdict["digest_matches_solo"] is False
    # CSP: the solo digest does not depend on the GPU count
    assert len({digest for digest, _losses in memo.solo.values()}) == 1
    failed = solo_verdict(spec, dict(row, status="failed"), 8, memo)
    assert set(failed.values()) == {None} and len(failed) == 4


def test_service_rows_carry_the_verdict():
    jobs = [JOB, {**JOB, "name": "rigid", "system": "PipeDream", "seed": 7}]
    report = run_service({"total_gpus": 4, "verify_solo": True, "jobs": jobs})
    elastic, rigid = report["jobs"]
    assert report["ok"] and elastic["elastic"] and not rigid["elastic"]
    assert elastic["solo_gpus"] == JOB["max_gpus"]
    assert rigid["solo_gpus"] == rigid["segments"][0]["gpus"]
    for entry, job in zip(jobs, report["jobs"]):
        verdict = solo_verdict(JobSpec.from_payload(entry), job, 4)
        assert verdict == {key: job[key] for key in verdict} and len(verdict) == 4


# ----------------------------------------------------------------------
# the writer
# ----------------------------------------------------------------------
def test_canonical_writer():
    obj = {"b": [1, 2.5], "a": {"d": None, "c": "x"}}
    assert payload.compact(obj) == '{"a":{"c":"x","d":null},"b":[1,2.5]}'
    assert payload.indented(obj) == json.dumps(obj, indent=2, sort_keys=True)
    assert not payload.indented(obj).endswith("\n")
    assert payload.sha256(obj) == payload.sha256(json.loads(payload.indented(obj)))


# ----------------------------------------------------------------------
# the functional batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value", [0, -2])
def test_a_job_refuses_a_functional_batch_below_one(value):
    # at the parent 0 trained empty batches (a false isolation alarm) and
    # -2 died in numpy ("negative dimensions are not allowed")
    with pytest.raises(ConfigError, match=rf"jobs\[1\]: functional_batch must be an integer >= 1, got {value}"):
        JobSpec.from_payload({**JOB, "functional_batch": value}, "jobs[1]")


@pytest.mark.parametrize("value", [0, -2, True, 2.0, None])
def test_a_plane_refuses_a_functional_batch_that_is_no_count(value):
    from repro.engines.functional_plane import FunctionalPlane
    from repro.seeding import SeedSequenceTree
    from repro.supernet.search_space import get_search_space
    from repro.supernet.supernet import Supernet

    supernet = Supernet(get_search_space("NLP.c3").scaled(**TINY))
    with pytest.raises(ConfigError, match="functional_batch must be an integer >= 1"):
        FunctionalPlane(supernet, SeedSequenceTree(1), functional_batch=value)


@pytest.mark.parametrize("value", [0, -2])
def test_serve_refuses_a_functional_batch_below_one_before_running(value, tmp_path):
    path = tmp_path / "serve.json"
    path.write_text(json.dumps({"total_gpus": 2, "verify_solo": True, "jobs": [{**JOB, "functional_batch": value}]}))
    out = tmp_path / "out.json"
    with pytest.raises(ConfigError, match=r"jobs\[0\]: functional_batch"):
        main(["serve", str(path), "--json", str(out)])
    assert not out.exists()
