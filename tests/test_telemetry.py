"""The live telemetry plane end to end: typed instruments, the virtual
scrape loop, declarative alerts, and per-tenant usage metering.

The tentpole claims (docs/TELEMETRY.md):

* arming telemetry changes **zero** plane bytes — engine digests and
  service/serving reports are bitwise identical with and without a hub;
* every exporter (JSONL series, Prometheus text, alert log, metering
  table) is byte-identical across identical runs;
* per-tenant GPU-slot-milliseconds reconcile exactly (<= 1e-9 ms) with
  the cluster manager's own usage ledger, including leases split across
  revocation incarnations;
* a seeded fleet storm deterministically fires *and resolves* the SLO
  burn-rate alert inside the outage-impact window, while a healthy run
  fires nothing.
"""

import json
import re
from pathlib import Path

import pytest

from repro.baselines import naspipe
from repro.engines.pipeline import PipelineEngine
from repro.errors import ConfigError
from repro.ft import FaultEvent, FaultSchedule
from repro.ft.fleet import _build_planes
from repro.obs.registry import compare_records, format_compare, run_record
from repro.obs import EVENT_SCHEMAS
from repro.obs import telemetry as hub_module
from repro.obs.telemetry import INSTRUMENTS, TelemetryHub, replay_telemetry
from repro.obs.telemetry.alerts import (
    DEFAULT_RULES,
    AlertEngine,
    AlertRule,
    load_rules,
)
from repro.obs.telemetry.registry import MetricsRegistry, _Instrument
from repro.seeding import SeedSequenceTree
from repro.service import run_service
from repro.service.scheduler import service_report_json
from repro.serving import ServingEngine, ServingSpec
from repro.sim.cluster import ClusterSpec
from repro.sim.trace import TraceEvent
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

OVERRIDES = {"num_blocks": 8, "functional_width": 16}

SERVICE_CONFIG = {
    "total_gpus": 6,
    "quantum": 4,
    "resize_cost_ms": 20.0,
    "jobs": [
        {
            "name": "elastic",
            "space": "NLP.c3",
            "space_overrides": OVERRIDES,
            "system": "NASPipe",
            "subnets": 8,
            "seed": 2022,
            "priority": 2,
            "min_gpus": 2,
            "max_gpus": 4,
        },
        {
            "name": "rigid",
            "space": "CV.c3",
            "space_overrides": OVERRIDES,
            "system": "PipeDream",
            "subnets": 6,
            "seed": 7,
            "priority": 1,
            "min_gpus": 2,
            "max_gpus": 2,
        },
    ],
}

SERVING_CONFIG = {
    "space": "NLP.c3",
    "space_overrides": OVERRIDES,
    "num_gpus": 2,
    "total_gpus": 4,
    "eval_batch": 4,
    "requests": 60,
    "arrival": "poisson",
    "rate_rps": 60.0,
    "skew": 0.7,
    "hot_prefixes": 3,
    "prefix_blocks": 4,
    "repeat_fraction": 0.3,
    "seed": 2022,
    "max_batch": 4,
    "max_linger_ms": 5.0,
    "queue_bound": 16,
    "result_entries": 64,
    "cache_subnets": 3.0,
    "slo_ms": 400.0,
}

FLEET_CONFIG = {
    "quantum": 4,
    "resize_cost_ms": 20.0,
    "max_restarts": 3,
    "requeue_backoff_ms": 20.0,
    "serving": dict(SERVING_CONFIG, requests=80, total_gpus=8),
    "jobs": [SERVICE_CONFIG["jobs"][0]],
}


# ----------------------------------------------------------------------
# instruments: fixed shapes, loud drift
# ----------------------------------------------------------------------
def test_counter_only_goes_up():
    registry = MetricsRegistry()
    counter = registry.counter("t_total", "test")
    counter.inc(2.0)
    counter.inc()
    assert counter.value() == 3.0
    with pytest.raises(ConfigError):
        counter.inc(-1.0)


def test_instrument_registration_is_idempotent_but_shape_checked():
    registry = MetricsRegistry()
    first = registry.counter("t_total", "test", labels=("stage",))
    assert registry.counter("t_total", "test", labels=("stage",)) is first
    with pytest.raises(ConfigError):
        registry.counter("t_total", "test", labels=("gpu",))
    with pytest.raises(ConfigError):
        registry.gauge("t_total", "same name, different type")


def test_repeat_registration_builds_no_instrument(monkeypatch):
    """Registration is idempotent by name and a repeat is a lookup,
    with every outcome of the constructing path kept (same object back,
    same errors on drift, bad names and bad bounds)."""
    from repro.obs.telemetry import registry as module

    registry = MetricsRegistry()
    first = {
        "counter": registry.counter("t_total", "test", labels=("stage", "direction")),
        "gauge": registry.gauge("t_depth", "test", labels=["stage"]),
        "histogram": registry.histogram("t_ms", "test", buckets=(1, 10.0), labels=("stage",)),
    }
    built = []
    real = module._Instrument.__init__
    monkeypatch.setattr(
        module._Instrument, "__init__",
        lambda self, *args, **kwargs: (built.append(args[0]), real(self, *args, **kwargs))[1],
    )
    assert registry.counter("t_total", "other help", labels=("stage", "direction")) is first["counter"]
    assert registry.gauge("t_depth", labels=("stage",)) is first["gauge"]
    assert registry.histogram("t_ms", buckets=[1.0, 10], labels=("stage",)) is first["histogram"]
    assert built == []
    assert registry.counter("t2_total") is registry.counter("t2_total")
    assert built == ["t2_total"]
    # drift in type, label names, label order or bounds is still loud
    for drifted in (
        lambda: registry.gauge("t_total", labels=("stage", "direction")),
        lambda: registry.counter("t_total", labels=("direction", "stage")),
        lambda: registry.counter("t_total"),
        lambda: registry.histogram("t_ms", buckets=(1.0, 20.0), labels=("stage",)),
        lambda: registry.histogram("t_depth", buckets=(1.0,), labels=("stage",)),
    ):
        with pytest.raises(ConfigError, match="re-registered with a different type or shape"):
            drifted()
    with pytest.raises(ConfigError, match="strictly ascending"):
        registry.histogram("t_ms", buckets=(), labels=("stage",))
    with pytest.raises(ConfigError, match="bad metric name 'no-dash'"):
        registry.counter("no-dash")
    assert registry.get("no-dash") is None and len(registry.instruments()) == 4


def test_label_values_key_in_any_order():
    counter = MetricsRegistry().counter("t_total", labels=("stage", "direction"))
    counter.inc(1.0, stage=0, direction="fwd")
    counter.inc(2.0, direction="fwd", stage=0)  # not the declared order
    assert counter.value(stage="0", direction="fwd") == 3.0
    assert counter.samples() == [("t_total", ("0", "fwd"), 3.0)]
    for wrong in ({"stage": 0}, {"stage": 0, "gpu": 1}, {"stage": 0, "direction": "fwd", "gpu": 1}):
        with pytest.raises(ConfigError, match="fixed label sets"):
            counter.inc(1.0, **wrong)


def test_label_set_is_closed():
    registry = MetricsRegistry()
    counter = registry.counter("t_total", "test", labels=("stage",))
    counter.inc(1.0, stage="0")
    with pytest.raises(ConfigError):
        counter.inc(1.0, gpu="0")
    with pytest.raises(ConfigError):
        counter.inc(1.0)  # missing the declared label


def test_gauge_tracks_peak():
    registry = MetricsRegistry()
    gauge = registry.gauge("t_depth", "test")
    gauge.set(3.0)
    gauge.add(2.0)
    gauge.set(1.0)
    assert gauge.value() == 1.0
    assert gauge.peak() == 5.0


def test_histogram_buckets_must_ascend():
    registry = MetricsRegistry()
    with pytest.raises(
        ConfigError,
        match=r"^t_ms: histogram buckets must be non-empty and strictly "
        r"ascending, got \[10, 5\]$",
    ):
        registry.histogram("t_ms", "test", buckets=(10, 5))
    with pytest.raises(ConfigError):
        registry.histogram("t2_ms", "test", buckets=())


def test_histogram_samples_are_cumulative_with_inf():
    registry = MetricsRegistry()
    histogram = registry.histogram("t_ms", "test", buckets=(10.0, 100.0))
    for value in (5.0, 7.0, 50.0, 500.0):
        histogram.observe(value)
    assert histogram.bucket_counts() == [2, 1, 1]
    assert histogram.count() == 4
    assert histogram.sum() == 562.0
    samples = dict(
        ((name, labels), value) for name, labels, value in histogram.samples()
    )
    assert samples[("t_ms_bucket", ("10",))] == 2
    assert samples[("t_ms_bucket", ("100",))] == 3  # cumulative
    assert samples[("t_ms_bucket", ("+Inf",))] == 4
    assert samples[("t_ms_count", ())] == 4


# ----------------------------------------------------------------------
# the hub's table: declared once, fed by kinds the trace really emits
# ----------------------------------------------------------------------
DERIVED = {
    hub_module.FLEET: {"free", "leased", "down", "granted", "revoked"},
    hub_module.JOBS: {"queued", "running", "failed"},
    hub_module.SLO_GOOD: {"latency_ms"},
    hub_module.SLO_BAD: {"latency_ms"},
    hub_module.LANDED: {"stage"},
}


def _fields(source):
    """What a feed of ``source`` may read: the schema's declared fields
    for a trace kind, the dict the hub itself builds for a derived one."""
    if source in DERIVED:
        return DERIVED[source], False
    schema = EVENT_SCHEMAS[source]  # KeyError: the trace emits no such kind
    return set(schema.field_names()), schema.stage_scoped


def test_a_trace_rename_cannot_orphan_a_metric():
    ops = {
        "counter": {"inc", "inc_to"},
        "gauge": {"set", "add"},
        "histogram": {"observe"},
    }
    for name, (kind, labels, help, feeds, *buckets) in INSTRUMENTS.items():
        assert help and feeds, f"{name} is fed by nothing"
        assert bool(buckets) == (kind == "histogram"), name
        for source, op, amount in feeds:
            fields, stage_scoped = _fields(source)
            assert op in ops[kind], (name, op)
            if isinstance(amount, str):
                assert amount in fields, f"{name}: {source} carries no {amount!r}"
            elif callable(amount):
                amount(dict.fromkeys(fields, 1))  # KeyError: undeclared attr
            for label in labels:
                assert label in fields or (label == "stage" and stage_scoped), (
                    f"{name}: {source} cannot supply label {label!r}"
                )
    for kind in hub_module.LISTENED_KINDS:
        assert kind in EVENT_SCHEMAS
    for kind in hub_module._JOB_STATUS:
        assert "job" in EVENT_SCHEMAS[kind].field_names()
    for kind, (_, amount) in hub_module._METERED.items():
        assert kind in hub_module.LISTENED_KINDS
        assert not isinstance(amount, str) or amount in EVENT_SCHEMAS[kind].field_names()


def test_an_untouched_instrument_is_never_exposed_and_wiring_is_one_call():
    hub = TelemetryHub()
    assert hub.registry.instruments() == [] and hub.scraper.prometheus_text() == "\n"
    hub.on_serving_complete(10.0, retries=0)
    assert [i.name for i in hub.registry.instruments()] == [
        "serving_latency_ms",
        "serving_slo_good_total",
    ]
    assert [n for n in dir(TelemetryHub) if n.startswith("attach")] == ["attach"]


# ----------------------------------------------------------------------
# scraper
# ----------------------------------------------------------------------
@pytest.mark.parametrize("interval", [0.0, -5.0, float("nan"), float("inf")])
def test_scrape_interval_must_be_finite_and_positive(interval):
    with pytest.raises(ConfigError, match="scrape_interval_ms must be > 0 and finite"):
        TelemetryHub(scrape_interval_ms=interval)


def test_scrape_series_never_duplicates_a_timestamp():
    hub = TelemetryHub()
    counter = hub.registry.counter("t_total", "test")
    counter.inc()
    hub.scraper.scrape(100.0)
    counter.inc()
    hub.scraper.scrape(100.0)  # quiescence flush at a sampled instant
    assert len(hub.scraper.samples) == 1
    # the flush overwrote the sample with the post-increment state
    assert hub.scraper.samples[0][1]["t_total"] == 2.0


def test_series_jsonl_is_canonical():
    hub = TelemetryHub()
    hub.registry.counter("t_total", "test").inc()
    hub.scraper.scrape(0.0)
    hub.scraper.scrape(100.0)
    text = hub.scraper.series_jsonl()
    assert text == (
        '{"samples":{"t_total":1.0},"t_ms":0.0}\n'
        '{"samples":{"t_total":1.0},"t_ms":100.0}\n'
    )


# ----------------------------------------------------------------------
# alert rules on synthetic series
# ----------------------------------------------------------------------
def _series(*points):
    return [(float(t), dict(sample)) for t, sample in points]


def test_threshold_rule_holds_for_for_ms_before_firing():
    rule = AlertRule.from_payload(
        {
            "name": "hot",
            "kind": "threshold",
            "metric": "depth",
            "op": ">",
            "threshold": 2.0,
            "for_ms": 100.0,
        }
    )
    series = _series(
        (0, {"depth": 0}),
        (100, {"depth": 5}),  # pending starts here
        (200, {"depth": 5}),  # held 100ms -> fires
        (300, {"depth": 1}),  # resolves
        (400, {"depth": 5}),  # pending restarts; never held long enough
    )
    log = AlertEngine([rule]).evaluate(series)
    assert log == [
        {
            "rule": "hot",
            "kind": "threshold",
            "fired_at_ms": 200.0,
            "resolved_at_ms": 300.0,
        }
    ]


def test_threshold_rule_still_firing_at_end_has_null_resolution():
    rule = AlertRule.from_payload(
        {"name": "down", "metric": "down_slots", "op": ">", "threshold": 0.0}
    )
    series = _series((0, {"down_slots": 0}), (100, {"down_slots": 2}))
    log = AlertEngine([rule]).evaluate(series)
    assert log[0]["fired_at_ms"] == 100.0
    assert log[0]["resolved_at_ms"] is None


def test_burn_rate_needs_every_window_burning():
    rule = AlertRule.from_payload(
        {
            "name": "burn",
            "kind": "burn_rate",
            "good": "good",
            "bad": "bad",
            "objective": 0.9,  # 10% budget
            "windows": [
                {"window_ms": 100.0, "factor": 2.0},  # needs >= 20% bad
                {"window_ms": 300.0, "factor": 1.0},  # needs >= 10% bad
            ],
        }
    )
    series = _series(
        (0, {"good": 0, "bad": 0}),
        (100, {"good": 10, "bad": 0}),
        # short window: 5/10 bad = 50% >= 20%; long: 5/20 = 25% >= 10%
        (200, {"good": 15, "bad": 5}),
        # short window clean again -> resolves even though long still burns
        (300, {"good": 25, "bad": 5}),
    )
    log = AlertEngine([rule]).evaluate(series)
    assert log == [
        {
            "rule": "burn",
            "kind": "burn_rate",
            "fired_at_ms": 200.0,
            "resolved_at_ms": 300.0,
        }
    ]


def test_rule_validation_is_loud():
    with pytest.raises(ConfigError):
        AlertRule.from_payload({"name": "x", "metric": "m", "op": "!=", "threshold": 1})
    with pytest.raises(ConfigError):
        AlertRule.from_payload({"name": "x", "kind": "threshold"})  # no metric
    with pytest.raises(ConfigError):
        AlertRule.from_payload({"name": "x", "kind": "burn_rate", "good": "g", "bad": "b",
                                "objective": 1.5, "windows": [{"window_ms": 10}]})
    with pytest.raises(ConfigError):
        AlertRule.from_payload({"name": "x", "kind": "burn_rate", "good": "g", "bad": "b"})
    with pytest.raises(ConfigError):
        AlertRule.from_payload({"name": "x", "metric": "m", "surprise": 1})
    with pytest.raises(ConfigError):
        AlertRule.from_payload({"metric": "m"})  # nameless


def test_load_rules_from_file_and_defaults(tmp_path):
    defaults = load_rules(None)
    assert [rule.name for rule in defaults] == [
        "fleet_slots_down",
        "service_job_failed",
        "serving_slo_burn",
    ]
    path = tmp_path / "rules.json"
    path.write_text(
        json.dumps(
            {
                "rules": [
                    {"name": "a", "metric": "m", "op": ">=", "threshold": 1}
                ]
            }
        )
    )
    loaded = load_rules(path)
    assert [rule.name for rule in loaded] == ["a"]


def _threshold(metric):
    return [{"name": "r", "metric": metric, "op": ">", "threshold": 1}]


def test_the_hub_accepts_the_default_rules_and_the_documented_example():
    assert len(TelemetryHub(rules=DEFAULT_RULES).alerts.rules) == 3
    docs = (Path(__file__).parent.parent / "docs" / "TELEMETRY.md").read_text()
    example = json.loads(re.search(r"```json\n(\{\"rules\".*?)```", docs, re.S).group(1))
    assert len(TelemetryHub(rules=example["rules"]).alerts.rules) == 2
    for series in (
        'engine_queue_depth{stage="0"}',
        "serving_latency_ms_count",
        'serving_latency_ms_bucket{le="100"}',
    ):
        TelemetryHub(rules=_threshold(series))


@pytest.mark.parametrize(
    "series, complaint",
    [
        ("serving_queue_dept", "no telemetry instrument samples 'serving_queue_dept'"),
        ("serving_latency_ms", "no telemetry instrument samples"),  # bare histogram
        ("fleet_down_slots_count", "no telemetry instrument samples"),
        # the docs-induced case: labelled, written without its selector
        ("engine_queue_depth", r"can never match — engine_queue_depth is sampled with labels \('stage',\)"),
        ("serving_latency_ms_bucket", "can never match"),
        ('fleet_down_slots{slot="0"}', "can never match"),
    ],
)
def test_a_rule_that_could_never_fire_is_refused_by_the_hub(series, complaint):
    with pytest.raises(ConfigError, match=f"alert rule 'r': .*{complaint}"):
        TelemetryHub(rules=_threshold(series))
    burn = {"name": "r", "kind": "burn_rate", "good": "serving_slo_good_total",
            "bad": series, "windows": [{"window_ms": 10.0}]}
    with pytest.raises(ConfigError, match="alert rule 'r'"):
        TelemetryHub(rules=[burn])
    # the rule classes stay catalog-free: synthetic series evaluate
    assert AlertEngine([AlertRule.from_payload(_threshold(series)[0])]).evaluate(
        _series((0, {series: 5}))
    )


# ----------------------------------------------------------------------
# service plane: byte identity, digest preservation, reconciliation
# ----------------------------------------------------------------------
def _service_run_with_hub(payload):
    hub = TelemetryHub(scrape_interval_ms=50.0)
    report = run_service(payload, telemetry=hub)
    return hub, report


def test_service_telemetry_is_byte_identical_across_runs():
    hub_a, _ = _service_run_with_hub(SERVICE_CONFIG)
    hub_b, _ = _service_run_with_hub(SERVICE_CONFIG)
    assert hub_a.scraper.series_jsonl() == hub_b.scraper.series_jsonl()
    assert hub_a.scraper.prometheus_text() == hub_b.scraper.prometheus_text()
    assert hub_a.alert_report() == hub_b.alert_report()
    assert json.dumps(hub_a.metering_report(), sort_keys=True) == json.dumps(
        hub_b.metering_report(), sort_keys=True
    )
    assert hub_a.meter.format_report() == hub_b.meter.format_report()


def test_service_report_bytes_unchanged_by_telemetry():
    plain = run_service(SERVICE_CONFIG)
    _, observed = _service_run_with_hub(SERVICE_CONFIG)
    assert service_report_json(plain) == service_report_json(observed)


def test_service_metering_reconciles_to_manager_ledger():
    hub, report = _service_run_with_hub(SERVICE_CONFIG)
    metering = hub.metering_report()
    reconciliation = metering["reconciliation"]
    assert reconciliation["ok"]
    assert abs(reconciliation["residual_ms"]) <= 1e-9
    assert set(metering["tenants"]) == {"elastic", "rigid"}
    # every tenant that ran holds slot-time
    for tenant in metering["tenants"].values():
        assert tenant["gpu_slot_ms"] > 0.0


def test_service_metering_reconciles_across_revocations():
    payload = dict(
        SERVICE_CONFIG,
        faults=[
            {
                "kind": "slot_preempt",
                "time_ms": 60.0,
                "target": 0,
                "duration_ms": 120.0,
            },
            {
                "kind": "slot_preempt",
                "time_ms": 300.0,
                "target": 2,
                "duration_ms": 120.0,
            },
        ],
    )
    hub, report = _service_run_with_hub(payload)
    assert hub.manager.total_revocations > 0
    metering = hub.metering_report()
    assert metering["reconciliation"]["ok"]
    assert abs(metering["reconciliation"]["residual_ms"]) <= 1e-9
    # the struck tenant's usage splits across lease incarnations, at
    # least one of which is marked revoked
    revoked = [
        lease
        for tenant in metering["tenants"].values()
        for lease in tenant["leases"]
        if lease["revoked"]
    ]
    assert revoked
    # and the fleet_slots_down alert fired (a slot really went down)
    log = hub.alert_report()["log"]
    assert any(entry["rule"] == "fleet_slots_down" for entry in log)


def test_healthy_service_run_fires_no_default_alerts():
    hub, _ = _service_run_with_hub(SERVICE_CONFIG)
    assert hub.alert_report()["firings"] == 0


# ----------------------------------------------------------------------
# serving plane
# ----------------------------------------------------------------------
def _serving_run(telemetry=None):
    engine = ServingEngine(
        ServingSpec.from_payload(SERVING_CONFIG), telemetry=telemetry
    )
    return engine, engine.run()


def test_serving_report_bytes_unchanged_by_telemetry():
    _, plain = _serving_run()
    _, observed = _serving_run(telemetry=TelemetryHub())
    assert json.dumps(
        plain.scenario_report(), sort_keys=True
    ) == json.dumps(observed.scenario_report(), sort_keys=True)


def test_serving_telemetry_counts_match_the_scenario_report():
    hub = TelemetryHub(scrape_interval_ms=50.0)
    _, result = _serving_run(telemetry=hub)
    scenario = result.scenario_report()
    snapshot = hub.registry.snapshot()
    assert snapshot["serving_requests_total"] == scenario["requests"]
    assert snapshot["serving_latency_ms_count"] == scenario["completed"]
    histogram = hub.registry.get("serving_latency_ms")
    assert histogram.count() == scenario["completed"]
    assert histogram.sum() == pytest.approx(
        sum(r.latency_ms for r in result.records if r.done_ms is not None)
    )
    assert hub.alert_report()["firings"] == 0  # healthy serving demo


def test_a_live_scrape_counts_the_copies_in_flight_at_its_instant():
    # at the parent the gauge took each copy's -1 when it was issued, so
    # every scrape of the serving demo read 0 on every stage
    hub = TelemetryHub(scrape_interval_ms=10.0)
    _serving_run(telemetry=hub)
    inflight = [
        [value for name, value in sample.items() if name.startswith("engine_prefetch_inflight")]
        for _, sample in hub.scraper.samples
    ]
    assert max(max(values, default=0.0) for values in inflight) > 0
    assert inflight[-1] and set(inflight[-1]) == {0.0}  # every copy landed


def test_serving_metering_reconciles():
    hub = TelemetryHub()
    _serving_run(telemetry=hub)
    metering = hub.metering_report()
    assert metering["reconciliation"]["ok"]
    assert set(metering["tenants"]) == {"serving"}


# ----------------------------------------------------------------------
# engine plane: replay, registry records, digest preservation
# ----------------------------------------------------------------------
def _engine_result(tiny_supernet, telemetry=None):
    stream = SubnetStream.sample(
        tiny_supernet.space, SeedSequenceTree(11), 12
    )
    engine = PipelineEngine(
        tiny_supernet,
        stream,
        naspipe(),
        ClusterSpec(num_gpus=4),
        batch=32,
        telemetry=telemetry,
    )
    return engine.run()


def test_engine_timing_unchanged_by_telemetry(tiny_supernet):
    plain = _engine_result(tiny_supernet)
    observed = _engine_result(tiny_supernet, telemetry=TelemetryHub())
    assert plain.makespan_ms == observed.makespan_ms
    assert plain.trace.gantt_rows() == observed.trace.gantt_rows()


def test_result_telemetry_replays_the_trace(tiny_supernet):
    result = _engine_result(tiny_supernet)
    hub = result.telemetry()
    snapshot = hub.registry.snapshot()
    assert snapshot["engine_subnets_completed_total"] == 12.0
    tasks = sum(
        value
        for key, value in snapshot.items()
        if key.startswith("engine_tasks_total{")
    )
    assert tasks > 0
    # replay is deterministic
    assert (
        result.telemetry().registry.snapshot()
        == replay_telemetry(result.trace).registry.snapshot()
    )


def test_replay_reads_the_columns_and_updates_by_series_key(monkeypatch):
    """A replay builds no ``TraceEvent`` row and never re-validates a
    label set: the hub keys a series from its ``INSTRUMENTS`` row.  The
    historic point (NLP.c2 x 96 subnets x 8 GPUs) has ~39k events."""
    space = get_search_space("NLP.c2")
    trace = PipelineEngine(
        Supernet(space),
        SubnetStream.sample(space, SeedSequenceTree(2022), 96),
        naspipe(),
        ClusterSpec(num_gpus=8),
        batch=32,
    ).run().trace
    assert len(trace.events) == 39019
    rows, keys = [], []
    new, make, key = TraceEvent.__new__, TraceEvent._make, _Instrument._key
    monkeypatch.setattr(
        TraceEvent, "__new__", lambda cls, *a, **k: rows.append(1) or new(cls, *a, **k)
    )
    monkeypatch.setattr(
        TraceEvent, "_make", classmethod(lambda cls, it: rows.append(1) or make(it))
    )
    monkeypatch.setattr(
        _Instrument, "_key", lambda self, labels: keys.append(1) or key(self, labels)
    )
    assert list(trace.events[:1]) and rows == [1]  # the counters count
    del rows[:]
    snapshot = replay_telemetry(trace).registry.snapshot()
    assert snapshot["engine_subnets_completed_total"] == 96.0
    assert rows == [] and keys == []


def test_a_negative_attr_amount_still_raises_through_the_hub():
    hub = TelemetryHub()
    hub.on_event(TraceEvent("cache_access", 1.0, 0, -1, (("hits", 2), ("misses", 0))))
    with pytest.raises(ConfigError, match="engine_cache_hits_total: counters only go up"):
        hub.on_event(
            TraceEvent("cache_access", 2.0, 0, -1, (("hits", -1), ("misses", 0)))
        )
    assert hub.registry.snapshot()['engine_cache_hits_total{stage="0"}'] == 2.0


def test_run_record_carries_telemetry_but_not_in_run_id(tiny_supernet):
    result = _engine_result(tiny_supernet)
    record = run_record(result, git_sha=None)
    assert record["telemetry"]["schema"] == 1
    assert record["telemetry"]["scrapes"] == 1  # replay: final sample only
    assert record["telemetry"]["gpu_slot_ms"] == {}  # no manager leased
    # the run_id digests summary+critical_path only; a record stripped of
    # the block resolves identically
    stripped = dict(record)
    stripped.pop("telemetry")
    assert stripped["run_id"] == record["run_id"]

    comparison = compare_records(record, record)
    assert comparison["telemetry"]["alerts_fired"]["delta"] == 0.0
    rendered = format_compare(comparison)
    assert "telemetry:" in rendered
    assert "peak_queue_depth" in rendered

    # pre-telemetry records still compare cleanly
    legacy = compare_records(stripped, stripped)
    assert legacy["telemetry"] == {}
    assert "telemetry:" not in format_compare(legacy)


# ----------------------------------------------------------------------
# chaos fleet: the storm fires and resolves the burn-rate alert
# ----------------------------------------------------------------------
def _storm_fleet_run():
    hub = TelemetryHub(scrape_interval_ms=50.0)
    manager, serving, scheduler = _build_planes(
        FLEET_CONFIG, 8, serving_telemetry=hub
    )
    serving_slots = frozenset(serving.lease.slots)
    storm = FaultSchedule(
        [
            FaultEvent(
                "slot_preempt",
                120.0,
                target=min(serving_slots),
                duration_ms=250.0,
            )
        ]
    )
    serving.inject_fleet_faults(storm, slots=serving_slots)
    scheduler.run()
    result = serving.run()
    return hub, manager, result


def test_storm_fires_and_resolves_slo_burn_inside_outage_window():
    hub, manager, result = _storm_fleet_run()
    assert result.outage_windows  # the revocation really happened
    log = hub.alert_report()["log"]
    burns = [e for e in log if e["rule"] == "serving_slo_burn"]
    assert len(burns) == 1
    burn = burns[0]
    assert burn["resolved_at_ms"] is not None  # it resolves, not latches
    # the firing interval overlaps the outage-impact window
    overlaps = any(
        burn["fired_at_ms"] <= end and start <= burn["resolved_at_ms"]
        for start, end in result.outage_windows
    )
    assert overlaps
    # the threshold rule tracked the down slot going down and back up
    downs = [e for e in log if e["rule"] == "fleet_slots_down"]
    assert len(downs) == 1
    assert downs[0]["resolved_at_ms"] is not None
    # and the whole thing is deterministic
    hub_b, _, _ = _storm_fleet_run()
    assert hub.alert_report() == hub_b.alert_report()
    assert hub.scraper.series_jsonl() == hub_b.scraper.series_jsonl()


def test_storm_metering_reconciles_both_planes():
    hub, manager, _ = _storm_fleet_run()
    metering = hub.metering_report()
    assert metering["reconciliation"]["ok"]
    assert abs(metering["reconciliation"]["residual_ms"]) <= 1e-9
    assert {"elastic", "serving"} <= set(metering["tenants"])
    # the serving tenant's lease was split by the revocation
    serving_leases = metering["tenants"]["serving"]["leases"]
    assert any(lease["revoked"] for lease in serving_leases)
    assert len(serving_leases) >= 2  # original + recovered incarnation
