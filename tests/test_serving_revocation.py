"""Serving under lease revocation: deterministic retry, honest SLO
accounting, and byte-identical reports under the same storm.

Companion to tests/test_serving.py (docs/SERVING.md § Lease revocation
and deterministic retry).
"""

import json

import pytest

from repro.errors import ConfigError, ServiceError
from repro.ft import FaultEvent, FaultSchedule
from repro.obs.events import validate_trace
from repro.serving import ServingEngine, ServingSpec

from readback_reference import events_of

CONFIG = {
    "space": "NLP.c3",
    "space_overrides": {"num_blocks": 8, "functional_width": 16},
    "num_gpus": 2,
    "total_gpus": 4,
    "eval_batch": 4,
    "requests": 50,
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


def _engine(storm=None, **overrides):
    spec = ServingSpec.from_payload({**CONFIG, **overrides})
    engine = ServingEngine(spec)
    if storm is not None:
        engine.inject_fleet_faults(storm)
    return engine


@pytest.fixture(scope="module")
def faultfree_makespan():
    return _engine().run().makespan_ms


def _storm(makespan, frac=0.4, outage_ms=80.0):
    # strike the serving lease's first slot mid-stream
    return FaultSchedule(
        [
            FaultEvent(
                "slot_preempt",
                makespan * frac,
                target=0,
                duration_ms=outage_ms,
            )
        ]
    )


@pytest.fixture(scope="module")
def revoked_result(faultfree_makespan):
    engine = _engine(storm=_storm(faultfree_makespan))
    result = engine.run()
    return engine, result


def test_revocation_loses_no_request(revoked_result):
    engine, result = revoked_result
    assert engine.revocations == 1
    # invariant: every record reaches a terminal outcome
    outcomes = {r.outcome for r in result.records}
    assert "pending" not in outcomes
    assert all(
        r.outcome in ("hit", "completed", "shed") for r in result.records
    )
    # the dissolved in-flight requests were retried, not dropped
    retried = [r for r in result.records if r.retries > 0]
    assert retried
    assert all(
        r.outcome in ("completed", "shed") for r in retried
    )
    assert validate_trace(result.trace) == []


def test_retry_and_revocation_are_trace_visible(revoked_result):
    _, result = revoked_result
    revokes = list(events_of(result.trace, "lease_revoke"))
    assert len(revokes) == 1
    assert revokes[0].attr("job") == "serving"
    assert "slot_preempt" in revokes[0].attr("fault")
    retries = list(events_of(result.trace, "request_retry"))
    assert retries
    assert all(e.attr("retries") >= 1 for e in retries)


def test_outage_window_is_recorded(revoked_result):
    engine, result = revoked_result
    assert len(result.outage_windows) == 1
    start, end = result.outage_windows[0]
    assert start < end
    # the engine re-acquired a lease and released it at quiescence
    assert engine.lease is None


def test_retried_requests_do_not_pollute_the_slo(revoked_result):
    _, result = revoked_result
    report = result.scenario_report()
    assert report["revocations"] == 1
    assert report["retries"] >= 1
    retried = report["retried"]
    assert retried["completed"] >= 1
    # slo_attainment is computed over *fresh* completions only; the
    # outage-inflated latencies live in the separate retried dict
    assert 0.0 <= report["slo_attainment"] <= 1.0
    # total completions still cover both populations
    fresh_and_retried = retried["completed"] + sum(
        1
        for r in result.records
        if r.outcome in ("hit", "completed") and r.retries == 0
    )
    assert fresh_and_retried == report["completed"]


def test_same_storm_twice_is_byte_identical(faultfree_makespan):
    reports = []
    for _ in range(2):
        engine = _engine(storm=_storm(faultfree_makespan))
        reports.append(
            json.dumps(
                engine.run().scenario_report(), sort_keys=True
            )
        )
    assert reports[0] == reports[1]


def test_unfaulted_run_unchanged_by_the_machinery(faultfree_makespan):
    # the deferred-merge / retry plumbing must be invisible without a
    # storm: no revocations, no retries, no outage windows
    engine = _engine()
    result = engine.run()
    report = result.scenario_report()
    assert report["revocations"] == 0
    assert report["retries"] == 0
    assert result.outage_windows == []
    assert report["retried"]["completed"] == 0


def test_inject_rejects_engine_kinds_and_double_arming():
    engine = _engine()
    with pytest.raises(ConfigError):
        engine.inject_fleet_faults(
            FaultSchedule([FaultEvent("copy_stall", 5.0, duration_ms=10.0)])
        )
    engine.run()
    with pytest.raises((ConfigError, ServiceError)):
        engine.inject_fleet_faults(
            FaultSchedule(
                [
                    FaultEvent(
                        "slot_preempt", 5.0, target=0, duration_ms=10.0
                    )
                ]
            )
        )
