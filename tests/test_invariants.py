"""The invariant library: each check holds on a real run and names the
one defect of a run tampered in exactly one way."""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import naspipe
from repro.errors import ConfigError
from repro.ft import chaos_sweep, run_uninterrupted, run_with_recovery
from repro.ft.faults import FaultSchedule
from repro.ft.fleet import _build_planes
from repro.invariants import (
    TOLERANCE,
    attribution_sums,
    cache_within_cap,
    completed,
    diverged,
    metering_reconciled,
    requests_served,
    same_training,
    slots_released,
    trace_valid,
)
from repro.obs.telemetry import TelemetryHub
from repro.supernet.search_space import get_search_space

STEPS = 8
TINY = {"num_blocks": 8, "functional_width": 16}
FLEET = {
    "slots_per_node": 2,
    "quantum": 4,
    "serving": {
        "space": "NLP.c3",
        "space_overrides": TINY,
        "num_gpus": 2,
        "eval_batch": 4,
        "requests": 30,
        "rate_rps": 60.0,
        "seed": 2022,
        "max_batch": 4,
        "queue_bound": 12,
        "slo_ms": 400.0,
    },
    "jobs": [
        {
            "name": "elastic",
            "space": "NLP.c3",
            "space_overrides": TINY,
            "subnets": 6,
            "seed": 2022,
            "min_gpus": 2,
            "max_gpus": 4,
        }
    ],
}


@pytest.fixture(scope="module")
def space():
    return get_search_space("NLP.c3").scaled(name="invariants", **TINY)


def _run(space, seed=3):
    return run_uninterrupted(space, naspipe(), num_gpus=2, steps=STEPS, seed=seed)


@pytest.fixture(scope="module")
def run(space):
    return _run(space)


@pytest.fixture(scope="module")
def fleet():
    """A co-tenant deployment run to quiescence: the shared manager, the
    serving result and the hub metering the serving plane."""
    hub = TelemetryHub()
    manager, serving, scheduler = _build_planes(FLEET, 6, serving_telemetry=hub)
    scheduler.run()
    return SimpleNamespace(
        manager=manager,
        result=serving.run(),
        slo_ms=serving.spec.slo_ms,
        training_trace=scheduler.trace,
        metering=hub.metering_report(),
    )


def test_every_check_holds_on_a_real_run(run, fleet):
    assert same_training(run, run) == []
    assert completed(run, STEPS) == []
    assert trace_valid(run.trace) == []
    assert attribution_sums(run.trace) == []
    assert cache_within_cap(run, run, run.peak_cache_bytes) == []
    assert slots_released(fleet.manager) == []
    assert requests_served(fleet.result, fleet.slo_ms) == []
    assert trace_valid(fleet.training_trace, "training") == []
    assert trace_valid(fleet.result.trace, "serving") == []
    assert metering_reconciled(fleet.metering["reconciliation"]) == []


def _with(run, **fields):
    return SimpleNamespace(**{"digest": run.digest, "losses": run.losses, **fields})


def test_same_training_names_a_tampered_digest(run):
    (violation,) = same_training(run, _with(run, digest="0" * 64))
    assert violation == f"digest diverged: {'0' * 64} != baseline {run.digest}"
    assert diverged([violation], "digest") and not diverged([violation], "losses")


def test_same_training_names_one_tampered_loss(run):
    sid = sorted(run.losses)[3]
    # a report row's losses are str-keyed; they name the same subnets
    row = {str(s): loss for s, loss in run.losses.items()}
    assert same_training(run, {"digest": run.digest, "losses": row}) == []
    row[str(sid)] += 1.0
    assert same_training(run, {"digest": run.digest, "losses": row}) == [
        f"losses diverged at subnets [{sid}]"
    ]


def test_same_training_names_a_missing_subnet(run):
    losses = {str(sid): loss for sid, loss in run.losses.items()}
    del losses[str(max(run.losses))]
    (violation,) = same_training(run, {"digest": run.digest, "losses": losses})
    assert violation.startswith("losses diverged")
    assert "not the same length" in violation
    assert completed(_with(run, interrupted=False, subnets_completed=STEPS - 1), STEPS) == [
        f"completed {STEPS - 1}/{STEPS} subnets"
    ]


def test_same_training_names_a_different_subnet_set(run):
    losses = dict(run.losses)
    losses[999] = losses.pop(max(losses))
    (violation,) = same_training(run, _with(run, losses=losses))
    assert "loss set differs" in violation
    assert f"missing [{max(run.losses)}], unexpected [999]" in violation


def test_same_training_needs_a_digest_on_both_sides():
    """A run without weights (no functional plane, a failed job) never
    reproduces anything — not even another run without weights."""
    nothing = {"digest": None, "losses": {}}
    assert diverged(same_training(nothing, nothing), "digest")
    assert diverged(same_training({"digest": "a", "losses": {}}, nothing), "digest")
    assert same_training({"digest": "a", "losses": {}}, {"digest": "a", "losses": {}}) == []


def test_trace_valid_names_a_nan_event_time(space):
    tampered = _run(space)
    tampered.trace.record_event(
        "task_done", float("nan"), stage=0, subnet_id=0, direction="fwd"
    )
    (violation,) = trace_valid(tampered.trace, "training")
    assert violation.startswith("training trace schema violations (1)")
    assert "task_done: time must be a finite number, got nan" in violation


def test_attribution_sums_names_an_attribution_off_by_1e6(run, monkeypatch):
    ratio = run.trace.bubble_ratio()
    assert 1e-6 > TOLERANCE
    monkeypatch.setattr(run.trace, "bubble_ratio", lambda: ratio + 1e-6)
    (violation,) = attribution_sums(run.trace)
    assert violation.startswith("bubble attribution ")
    assert violation.endswith(f"!= bubble ratio {ratio + 1e-6!r}")


def test_cache_within_cap_names_a_runaway_cache(run):
    lean = _with(run, peak_cache_bytes=run.peak_cache_bytes // 8)
    (violation,) = cache_within_cap(run, lean, run.peak_cache_bytes // 8)
    assert violation.startswith(f"peak cache {run.peak_cache_bytes} bytes exceeds 2.0x")


def test_slots_released_names_a_leaked_lease(fleet):
    lease = fleet.manager.acquire("leaker", 2)
    try:
        assert slots_released(fleet.manager) == [
            "2 GPU(s) still leased at quiescence",
            f"free pool {list(range(2, 6))} != all 6 slots",
        ]
    finally:
        fleet.manager.release(lease)
    assert slots_released(fleet.manager) == []


def test_requests_served_names_a_pending_request(fleet):
    records = list(fleet.result.records)
    records[5] = dataclasses.replace(records[5], outcome="pending")
    tampered = SimpleNamespace(records=records, outage_windows=fleet.result.outage_windows)
    assert requests_served(tampered, fleet.slo_ms) == [
        f"1 serving request(s) lost (still pending at quiescence): [{records[5].request_id}]"
    ]


def test_metering_reconciled_names_a_residual(fleet):
    block = dict(fleet.metering["reconciliation"], residual_ms=1e-6)
    (violation,) = metering_reconciled(block)
    assert violation.startswith("metering: tenants ")
    assert violation.endswith("(residual 1.00e-06)")
    assert metering_reconciled(None) == []  # no manager, nothing to reconcile


def test_a_harness_that_would_compare_nothing_is_refused(space, tmp_path):
    """Zero subnets make every run match every other: the sweep used to
    print PASS over runs that trained nothing."""
    with pytest.raises(ConfigError, match="steps >= 1"):
        chaos_sweep(space, naspipe(), scenarios=1, gpus=(2,), steps=0, seed=1)
    with pytest.raises(ConfigError, match="steps >= 1"):
        run_with_recovery(
            space, naspipe(), FaultSchedule([]), num_gpus=2, steps=0, seed=1,
            checkpoint_dir=tmp_path,
        )


@given(
    domain=st.sampled_from(["NLP.c3", "CV.c3"]),
    blocks=st.sampled_from([8, 10]),
    gpus=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=8, deadline=None)
def test_property_csp_trains_the_same_on_any_gpu_count(domain, blocks, gpus, seed):
    """Definition 1: a NASPipe run on ``gpus`` GPUs trains bitwise what
    its 1-GPU run does."""
    space = get_search_space(domain).scaled(
        name=f"prop{blocks}", num_blocks=blocks, functional_width=16
    )
    runs = [
        run_uninterrupted(space, naspipe(), num_gpus=n, steps=6, seed=seed)
        for n in (1, gpus)
    ]
    assert same_training(*runs) == []
