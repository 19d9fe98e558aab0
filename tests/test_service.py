"""The service plane: leases, fair-share allocation, and the job
scheduler's per-tenant determinism guarantee."""

import json

import pytest

from repro.errors import ConfigError, LeaseError, ServiceError
from repro.ft import run_uninterrupted
from repro.obs.events import validate_trace
from repro.service import (
    ClusterManager,
    JobScheduler,
    JobSpec,
    fair_share,
    format_service_report,
    run_service,
    service_report_json,
)
from repro.baselines import system_by_name
from repro.sim.cluster import ClusterSpec
from repro.supernet.search_space import get_search_space

SPACE_OVERRIDES = {"num_blocks": 8, "functional_width": 16}


def _space(name="NLP.c3"):
    return get_search_space(name).scaled(**SPACE_OVERRIDES)


# ----------------------------------------------------------------------
# ClusterManager / DeviceLease
# ----------------------------------------------------------------------
class TestClusterManager:
    def test_acquires_lowest_free_slots(self):
        manager = ClusterManager(ClusterSpec(num_gpus=8))
        a = manager.acquire("a", 3)
        b = manager.acquire("b", 2)
        assert a.slots == (0, 1, 2)
        assert b.slots == (3, 4)
        assert manager.available_gpus == 3
        assert manager.leased_gpus == 5

    def test_released_slots_return_and_resort(self):
        manager = ClusterManager(ClusterSpec(num_gpus=4))
        a = manager.acquire("a", 2)  # 0, 1
        manager.acquire("b", 2)  # 2, 3
        a.release()
        c = manager.acquire("c", 2)
        assert c.slots == (0, 1)

    def test_never_double_leases(self):
        manager = ClusterManager(ClusterSpec(num_gpus=4))
        a = manager.acquire("a", 3)
        with pytest.raises(LeaseError):
            manager.acquire("b", 2)
        assert manager._owner[0] == a.lease_id
        b = manager.acquire("b", 1)
        assert set(a.slots).isdisjoint(b.slots)

    def test_double_release_is_an_error(self):
        manager = ClusterManager(ClusterSpec(num_gpus=4))
        lease = manager.acquire("a", 2)
        lease.release()
        with pytest.raises(LeaseError):
            lease.release()

    def test_zero_gpu_lease_rejected(self):
        manager = ClusterManager(ClusterSpec(num_gpus=4))
        with pytest.raises(LeaseError):
            manager.acquire("a", 0)

    def test_materialize_after_release_rejected(self):
        manager = ClusterManager(ClusterSpec(num_gpus=4))
        lease = manager.acquire("a", 2)
        lease.release()
        assert not lease.active
        with pytest.raises(LeaseError):
            lease.materialize()

    def test_materialized_cluster_brands_physical_slots(self):
        manager = ClusterManager(ClusterSpec(num_gpus=8))
        manager.acquire("a", 3)
        lease = manager.acquire("b", 2)  # slots 3, 4
        assert lease.slots == (3, 4)  # stage i runs on slots[i]
        assert lease.materialize().num_stages == 2

    def test_lease_spec_reindexes_speed_factors(self):
        speeds = (1.0, 1.0, 2.0, 4.0)
        manager = ClusterManager(
            ClusterSpec(num_gpus=4, gpu_speed_factors=speeds)
        )
        manager.acquire("a", 2)
        lease = manager.acquire("b", 2)  # slots 2, 3
        assert lease.spec.gpu_speed_factors == (2.0, 4.0)

    def test_fresh_devices_per_materialize(self):
        manager = ClusterManager(ClusterSpec(num_gpus=2))
        lease = manager.acquire("a", 2)
        first = lease.materialize()
        first.copy_engines[0].next_free = 123.0
        first.forward_links[0].next_free = 123.0
        second = lease.materialize()
        assert second.copy_engines[0].next_free == 0.0
        assert second.forward_links[0].next_free == 0.0


# ----------------------------------------------------------------------
# fair_share
# ----------------------------------------------------------------------
class TestFairShare:
    def test_minimums_reserved_in_precedence_order(self):
        alloc = fair_share(
            4, [("a", 2, 3, 4), ("b", 1, 3, 4)]
        )
        assert alloc == {"a": 4, "b": 0}

    def test_surplus_split_by_priority(self):
        alloc = fair_share(
            8, [("a", 2, 1, 8), ("b", 1, 1, 8)]
        )
        assert alloc["a"] + alloc["b"] == 8
        assert alloc["a"] > alloc["b"]

    def test_caps_respected_and_remainder_flows_down(self):
        alloc = fair_share(
            8, [("a", 5, 1, 2), ("b", 1, 1, 8)]
        )
        assert alloc == {"a": 2, "b": 6}

    def test_single_gpu_fallback_when_floors_round_to_zero(self):
        alloc = fair_share(
            3, [("a", 1, 1, 4), ("b", 1, 1, 4), ("c", 1, 1, 4)]
        )
        assert alloc == {"a": 1, "b": 1, "c": 1}

    def test_never_exceeds_total(self):
        alloc = fair_share(
            5, [("a", 3, 2, 5), ("b", 2, 2, 5), ("c", 1, 2, 5)]
        )
        assert sum(alloc.values()) <= 5
        assert alloc["c"] == 0  # minimum no longer fits


# ----------------------------------------------------------------------
# JobSpec validation
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_unknown_payload_keys_rejected(self):
        with pytest.raises(ConfigError, match=r"job: unknown keys \['gpus'\]"):
            JobSpec.from_payload({"name": "a", "space": "NLP.c3", "gpus": 4})

    def test_invalid_gpu_range_rejected(self):
        with pytest.raises(ServiceError):
            JobSpec(name="a", space="NLP.c3", min_gpus=4, max_gpus=2)

    def test_priority_floor(self):
        # a direct construction meets the reader's declared ranges
        with pytest.raises(ServiceError, match=r"^a: priority must be an integer >= 1, got 0$"):
            JobSpec(name="a", space="NLP.c3", priority=0)
        with pytest.raises(ServiceError, match=r"^scheduler: max_restarts must be an integer >= 0"):
            JobScheduler(ClusterManager(ClusterSpec(num_gpus=4)), max_restarts=-1)

    def test_duplicate_job_name_rejected(self):
        scheduler = JobScheduler(ClusterManager(ClusterSpec(num_gpus=4)))
        spec = JobSpec(
            name="a", space="NLP.c3", space_overrides=SPACE_OVERRIDES
        )
        scheduler.submit(spec)
        with pytest.raises(ServiceError, match="duplicate"):
            scheduler.submit(spec)

    def test_unsatisfiable_minimum_rejected_at_submit(self):
        scheduler = JobScheduler(ClusterManager(ClusterSpec(num_gpus=2)))
        with pytest.raises(ServiceError, match="never be satisfied"):
            scheduler.submit(
                JobSpec(
                    name="a",
                    space="NLP.c3",
                    space_overrides=SPACE_OVERRIDES,
                    min_gpus=4,
                    max_gpus=8,
                )
            )


# ----------------------------------------------------------------------
# JobScheduler end-to-end
# ----------------------------------------------------------------------
def _demo_payload(**overrides):
    payload = {
        "total_gpus": 8,
        "quantum": 4,
        "jobs": [
            {
                "name": "a",
                "space": "NLP.c3",
                "space_overrides": SPACE_OVERRIDES,
                "subnets": 10,
                "seed": 3,
                "priority": 2,
                "min_gpus": 2,
                "max_gpus": 6,
            },
            {
                "name": "b",
                "space": "CV.c3",
                "space_overrides": SPACE_OVERRIDES,
                "system": "PipeDream",
                "subnets": 8,
                "seed": 5,
                "priority": 1,
                "min_gpus": 2,
                "max_gpus": 4,
            },
            {
                "name": "c",
                "space": "NLP.c2",
                "space_overrides": SPACE_OVERRIDES,
                "subnets": 6,
                "seed": 7,
                "priority": 3,
                "submit_ms": 1.0,
                "min_gpus": 2,
                "max_gpus": 4,
            },
        ],
    }
    payload.update(overrides)
    return payload


class TestJobScheduler:
    def test_cotenant_digests_match_solo_runs(self):
        report = run_service(_demo_payload(), verify_solo=True)
        assert report["ok"]
        assert len(report["jobs"]) == 3
        for job in report["jobs"]:
            assert job["digest_matches_solo"], job["name"]
            assert job["losses_match_solo"], job["name"]

    def test_elastic_job_resized_mid_run(self):
        report = run_service(_demo_payload(), verify_solo=True)
        resized = [j for j in report["jobs"] if j["resizes"] > 0]
        assert resized, "the mix should force at least one elastic resize"
        sizes = {seg["gpus"] for j in resized for seg in j["segments"]}
        assert len(sizes) > 1
        assert report["ok"]

    def test_rigid_job_runs_one_fixed_segment(self):
        report = run_service(_demo_payload())
        rigid = next(j for j in report["jobs"] if j["name"] == "b")
        assert not rigid["elastic"]
        assert len(rigid["segments"]) == 1
        assert rigid["resizes"] == 0

    def test_report_is_byte_deterministic(self):
        first = service_report_json(run_service(_demo_payload()))
        second = service_report_json(run_service(_demo_payload()))
        assert first == second

    def test_trace_is_schema_valid(self):
        manager = ClusterManager(ClusterSpec(num_gpus=8))
        scheduler = JobScheduler(manager, quantum=4)
        for entry in _demo_payload()["jobs"]:
            scheduler.submit(JobSpec.from_payload(entry))
        scheduler.run()
        assert validate_trace(scheduler.trace) == []
        kinds = {e.kind for e in scheduler.trace.events}
        assert {"job_submit", "job_start", "job_done"} <= kinds
        assert manager.available_gpus == manager.total_gpus

    def test_preemption_requeues_and_preserves_bits(self):
        # b (priority 5, min 4 of 4) lands while a is mid-stream: at a's
        # next boundary the whole fleet goes to b and a is preempted,
        # resuming only after b finishes — with unchanged bits.
        payload = {
            "total_gpus": 4,
            "quantum": 3,
            "jobs": [
                {
                    "name": "a",
                    "space": "NLP.c3",
                    "space_overrides": SPACE_OVERRIDES,
                    "subnets": 9,
                    "seed": 3,
                    "priority": 1,
                    "min_gpus": 2,
                    "max_gpus": 4,
                },
                {
                    "name": "b",
                    "space": "NLP.c2",
                    "space_overrides": SPACE_OVERRIDES,
                    "subnets": 6,
                    "seed": 5,
                    "priority": 5,
                    "submit_ms": 1.0,
                    "min_gpus": 4,
                    "max_gpus": 4,
                },
            ],
        }
        report = run_service(payload, verify_solo=True)
        assert report["ok"]
        preempted = next(j for j in report["jobs"] if j["name"] == "a")
        assert preempted["preemptions"] >= 1
        # while b held the fleet, a ran nothing
        b = next(j for j in report["jobs"] if j["name"] == "b")
        b_span = (b["segments"][0]["start_ms"], b["segments"][-1]["end_ms"])
        for seg in preempted["segments"]:
            assert seg["end_ms"] <= b_span[0] or seg["start_ms"] >= b_span[1]

    def test_solo_job_on_shared_fleet_equals_direct_run(self):
        # degenerate service of one job == the recovery module's
        # uninterrupted run, segment boundaries and all
        payload = {
            "total_gpus": 4,
            "quantum": 3,
            "jobs": [
                {
                    "name": "only",
                    "space": "NLP.c3",
                    "space_overrides": SPACE_OVERRIDES,
                    "subnets": 10,
                    "seed": 11,
                    "min_gpus": 4,
                    "max_gpus": 4,
                }
            ],
        }
        report = run_service(payload)
        direct = run_uninterrupted(
            _space(),
            system_by_name("NASPipe"),
            num_gpus=4,
            steps=10,
            seed=11,
        )
        assert report["jobs"][0]["digest"] == direct.digest

    def test_unknown_service_keys_rejected(self):
        with pytest.raises(ConfigError, match=r"service config: unknown keys \['gpus'\]"):
            run_service({"gpus": 8, "jobs": [{"name": "a", "space": "NLP.c3"}]})

    def test_empty_job_list_rejected(self):
        with pytest.raises(ServiceError, match="non-empty"):
            run_service({"jobs": []})

    def test_format_report_mentions_every_job(self):
        report = run_service(_demo_payload(), verify_solo=True)
        text = format_service_report(report)
        for job in report["jobs"]:
            assert job["name"] in text
        assert "matches its solo run bitwise" in text


def test_cli_serve_roundtrip(tmp_path, capsys):
    from repro.cli import main

    config = tmp_path / "jobs.json"
    config.write_text(json.dumps(_demo_payload()))
    out = tmp_path / "report.json"
    assert main(["serve", str(config), "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "service:" in text
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert {j["name"] for j in report["jobs"]} == {"a", "b", "c"}
