"""One reading of a config (``repro.payload``) on every plane.

Each plane's config goes through the same reader, so the same mistakes
— an unknown key, an unknown override field, an unknown system, an
unknown stream kind — end in the same :class:`ConfigError`, with the
path of the offending entry and the accepted values, wherever they are
made.  The second half pins what the reader replaced: every default is
the dataclass's or the constructor's, and the solo-baseline rule is one
function.
"""

import dataclasses
import json

import pytest

from repro import payload
from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.common import ExperimentScale, make_stream
from repro.ft import FaultSchedule, JobMemo, fleet_sweep
from repro.nas import SupernetTrainer
from repro.obs.telemetry.alerts import AlertRule
from repro.replay import record_run
from repro.service import (
    ClusterManager,
    JobScheduler,
    JobSpec,
    run_service,
    solo_verdict,
)
from repro.service.scheduler import SCHEDULER_KNOBS
from repro.serving import BatchPolicy, ServingEngine, ServingSpec, WorkloadSpec
from repro.sim.cluster import ClusterSpec

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
    "alert": (lambda x, _: AlertRule({"name": "r", "metric": "m", **x}), "alert rule 'r'", "for_ms"),
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
    "alert rule": (lambda value, _: AlertRule(value), "alert rule"),
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
    spec = JobSpec.from_payload({**JOB, "submit_ms": 5, "subnets": 4.0})
    assert type(spec.submit_ms) is float and type(spec.subnets) is int
    # a bool default is not an int default
    assert payload.build(_Switch, {"on": False}, "switch").on is False
    with pytest.raises(ConfigError, match="serving: rate_rps must be float, got 'fast'"):
        ServingSpec.from_payload({"rate_rps": "fast"})


def test_job_spec_keys_are_its_fields():
    assert list(payload.accepted(JobSpec)) == [f.name for f in dataclasses.fields(JobSpec)]
    assert JobSpec.from_payload({"name": "a", "space": "NLP.c1"}) == JobSpec("a", "NLP.c1")


def test_scheduler_defaults_are_the_constructor_defaults():
    manager = ClusterManager(ClusterSpec(num_gpus=4))
    default, built = JobScheduler(manager), JobScheduler.from_payload(manager, {})
    for knob in SCHEDULER_KNOBS:
        assert getattr(built, knob) == getattr(default, knob), knob
    # other keys of the config are not the scheduler's to read, and
    # values get the constructor's types
    tuned = JobScheduler.from_payload(
        manager, {"quantum": 3.0, "resize_cost_ms": 10, "jobs": [], "total_gpus": 4}
    )
    assert (tuned.quantum, type(tuned.quantum)) == (3, int)
    assert (tuned.resize_cost_ms, type(tuned.resize_cost_ms)) == (10.0, float)
    assert tuned.slots_per_node == default.slots_per_node


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
