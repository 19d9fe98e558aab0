"""Lease revocation in the service plane: elastic CSP tenants shrink and
resume bitwise, rigid tenants requeue with backoff and fail closed.

Companion to tests/test_service.py — same scheduler, now with a
fleet-scoped fault schedule armed (docs/FAULT_TOLERANCE.md
§ Fleet-scale faults).
"""

import pytest

from repro.baselines import naspipe, pipedream
from repro.errors import ConfigError, ServiceError
from repro.ft import FaultEvent, FaultSchedule, run_uninterrupted
from repro.obs.events import validate_trace
from repro.service import ClusterManager, JobScheduler, JobSpec, run_service
from repro.sim.cluster import ClusterSpec
from repro.supernet.search_space import get_search_space

OVERRIDES = {"num_blocks": 8, "functional_width": 16}


def _space():
    return get_search_space("NLP.c3").scaled(**OVERRIDES)


def _cv_space():
    return get_search_space("CV.c3").scaled(**OVERRIDES)


def _elastic_spec(subnets=8, seed=2022):
    return JobSpec(
        name="elastic",
        space="NLP.c3",
        space_overrides=OVERRIDES,
        system="NASPipe",
        subnets=subnets,
        seed=seed,
        min_gpus=2,
        max_gpus=4,
    )


def _rigid_spec(subnets=6, seed=7):
    return JobSpec(
        name="rigid",
        space="CV.c3",
        space_overrides=OVERRIDES,
        system="PipeDream",
        subnets=subnets,
        seed=seed,
        min_gpus=2,
        max_gpus=2,
    )


def _scheduler(total_gpus, specs, **knobs):
    manager = ClusterManager(ClusterSpec(num_gpus=total_gpus))
    scheduler = JobScheduler(manager, quantum=4, resize_cost_ms=20.0, **knobs)
    for spec in specs:
        scheduler.submit(spec)
    return manager, scheduler


def _faultfree_makespan(total_gpus, specs, **knobs):
    _, scheduler = _scheduler(total_gpus, specs, **knobs)
    return scheduler.run()["makespan_ms"]


def _preempt(time_ms, slot, outage_ms=120.0):
    return FaultEvent(
        "slot_preempt", time_ms, target=slot, duration_ms=outage_ms
    )


# ----------------------------------------------------------------------
# elastic CSP: revocation is just another resize
# ----------------------------------------------------------------------
def test_elastic_csp_survives_revocation_bitwise():
    spec = _elastic_spec()
    makespan = _faultfree_makespan(4, [spec])
    manager, scheduler = _scheduler(4, [spec])
    # strike the job's lowest slot mid-run: the lease is revoked, the
    # segment result is discarded (never merged), the job replans
    scheduler.inject_fleet_faults(
        FaultSchedule([_preempt(makespan * 0.4, 0)])
    )
    report = scheduler.run()
    job = report["jobs"][0]
    assert job["status"] == "done"
    assert report["revocations"] == 1
    solo = run_uninterrupted(
        _space(), naspipe(), num_gpus=4, steps=spec.subnets, seed=spec.seed
    )
    assert job["digest"] == solo.digest
    assert job["losses"] == {
        str(sid): loss for sid, loss in sorted(solo.losses.items())
    }
    # the revocation is a first-class trace event with fault provenance
    revokes = list(scheduler.trace.events_of("lease_revoke"))
    assert len(revokes) == 1
    assert revokes[0].attr("job") == "elastic"
    assert "slot_preempt" in revokes[0].attr("fault")
    assert validate_trace(scheduler.trace) == []
    # zero leaked leases once the storm is over
    assert manager.leased_gpus == 0
    assert manager.residual_slots() == ()
    assert manager.down_slots() == ()


def test_storm_cannot_change_the_elastic_jobs_bits_at_any_time():
    spec = _elastic_spec(subnets=6)
    makespan = _faultfree_makespan(4, [spec])
    solo = run_uninterrupted(
        _space(), naspipe(), num_gpus=4, steps=spec.subnets, seed=spec.seed
    )
    for frac in (0.15, 0.5, 0.85):
        _, scheduler = _scheduler(4, [spec])
        scheduler.inject_fleet_faults(
            FaultSchedule([_preempt(makespan * frac, 1)])
        )
        job = scheduler.run()["jobs"][0]
        assert job["status"] == "done", frac
        assert job["digest"] == solo.digest, frac


# ----------------------------------------------------------------------
# rigid tenants: requeue with backoff, fail closed after the budget
# ----------------------------------------------------------------------
def test_rigid_job_requeues_and_restarts_deterministically():
    spec = _rigid_spec()
    makespan = _faultfree_makespan(2, [spec])
    _, scheduler = _scheduler(2, [spec], requeue_backoff_ms=10.0)
    scheduler.inject_fleet_faults(
        FaultSchedule([_preempt(makespan * 0.5, 0, outage_ms=50.0)])
    )
    report = scheduler.run()
    job = report["jobs"][0]
    assert job["status"] == "done"
    assert job["restarts"] == 1
    assert job["lost_virtual_ms"] > 0  # the aborted half is charged
    # no consistent cuts without CSP: the restart replays from subnet 0,
    # which is still deterministic — the digest matches the solo run
    solo = run_uninterrupted(
        _cv_space(), pipedream(), num_gpus=2, steps=spec.subnets, seed=spec.seed
    )
    assert job["digest"] == solo.digest
    requeues = list(scheduler.trace.events_of("job_requeue"))
    assert len(requeues) == 1
    assert requeues[0].attr("restarts") == 1
    assert requeues[0].attr("backoff_ms") == 10.0  # 10 * 2**0
    assert validate_trace(scheduler.trace) == []


def test_rigid_job_fails_closed_after_restart_budget():
    spec = _rigid_spec()
    makespan = _faultfree_makespan(2, [spec])
    manager, scheduler = _scheduler(2, [spec], max_restarts=0)
    scheduler.inject_fleet_faults(
        FaultSchedule([_preempt(makespan * 0.5, 0)])
    )
    report = scheduler.run()  # the fleet keeps running: no raise
    job = report["jobs"][0]
    assert job["status"] == "failed"
    assert report["failed_jobs"] == 1
    failure = job["failure"]
    assert failure is not None
    assert failure["attempts"] == 1
    assert failure["max_restarts"] == 0
    assert failure["lost_virtual_ms"] > 0
    assert "slot_preempt" in failure["fault"]
    failed_events = list(scheduler.trace.events_of("job_failed"))
    assert len(failed_events) == 1
    assert failed_events[0].attr("job") == "rigid"
    # a failed job is a bounded outcome, not a leak
    assert manager.leased_gpus == 0
    assert manager.residual_slots() == ()
    assert validate_trace(scheduler.trace) == []


def test_failed_tenant_does_not_take_the_fleet_down():
    elastic, rigid = _elastic_spec(), _rigid_spec()
    makespan = _faultfree_makespan(6, [elastic, rigid])
    _, scheduler = _scheduler(6, [elastic, rigid], max_restarts=0)
    # strike every slot the rigid job could hold, repeatedly
    scheduler.inject_fleet_faults(
        FaultSchedule(
            [_preempt(makespan * 0.3, s) for s in range(6)]
        )
    )
    report = scheduler.run()
    by_name = {job["name"]: job for job in report["jobs"]}
    # the elastic job must still finish bitwise-correct even though the
    # whole fleet was struck and a co-tenant died
    assert by_name["elastic"]["status"] == "done"
    solo = run_uninterrupted(
        _space(),
        naspipe(),
        num_gpus=4,
        steps=elastic.subnets,
        seed=elastic.seed,
    )
    assert by_name["elastic"]["digest"] == solo.digest
    assert by_name["rigid"]["status"] in ("done", "failed")


# ----------------------------------------------------------------------
# plumbing: run_service payload, injection validation
# ----------------------------------------------------------------------
def test_run_service_accepts_a_fault_schedule_payload():
    payload = {
        "total_gpus": 4,
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
                "min_gpus": 2,
                "max_gpus": 4,
            }
        ],
    }
    makespan = run_service(payload)["makespan_ms"]
    faulted = run_service(
        {
            **payload,
            "verify_solo": True,
            "faults": [
                {
                    "kind": "slot_preempt",
                    "time_ms": makespan * 0.5,
                    "target": 0,
                    "duration_ms": 120.0,
                }
            ],
        }
    )
    assert faulted["revocations"] == 1
    assert faulted["fleet_faults"] == 1
    assert faulted["ok"]  # verify_solo: digest still matches the solo run
    assert faulted["jobs"][0]["digest_matches_solo"]


def test_inject_rejects_engine_kinds_and_post_run_arming():
    _, scheduler = _scheduler(4, [_elastic_spec()])
    with pytest.raises(ConfigError):
        scheduler.inject_fleet_faults(
            FaultSchedule([FaultEvent("gpu_crash", 10.0, target=0)])
        )
    scheduler.run()
    with pytest.raises(ServiceError):
        scheduler.inject_fleet_faults(
            FaultSchedule([_preempt(10.0, 0)])
        )
