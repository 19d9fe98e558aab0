"""Property-based service plane: arbitrary co-tenant mixes never change
any job's bits, and the cluster manager never violates lease ownership."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.errors import LeaseError
from repro.obs.events import validate_trace
from repro.service import ClusterManager, JobScheduler, JobSpec, run_service
from repro.sim.cluster import ClusterSpec

SPACE_OVERRIDES = {"num_blocks": 8, "functional_width": 16}
SPACES = ["NLP.c3", "CV.c3"]
SYSTEMS = ["NASPipe", "NASPipe", "PipeDream"]  # CSP-weighted mix


@st.composite
def job_mixes(draw):
    """2-4 jobs with mixed priorities, arrival times, GPU ranges and
    sync modes on a shared 8-GPU fleet."""
    jobs = []
    for i in range(draw(st.integers(min_value=2, max_value=4))):
        min_gpus = draw(st.integers(min_value=1, max_value=2))
        jobs.append(
            {
                "name": f"job{i}",
                "space": draw(st.sampled_from(SPACES)),
                "space_overrides": SPACE_OVERRIDES,
                "system": draw(st.sampled_from(SYSTEMS)),
                "subnets": draw(st.integers(min_value=3, max_value=8)),
                "seed": draw(st.integers(min_value=1, max_value=50)),
                "priority": draw(st.integers(min_value=1, max_value=3)),
                "submit_ms": draw(
                    st.floats(
                        min_value=0.0, max_value=500.0, allow_nan=False
                    )
                ),
                "min_gpus": min_gpus,
                "max_gpus": draw(st.integers(min_value=min_gpus, max_value=6)),
            }
        )
    return {
        "total_gpus": 8,
        "quantum": draw(st.integers(min_value=2, max_value=5)),
        "jobs": jobs,
    }


@settings(max_examples=8, deadline=None)
@given(payload=job_mixes())
def test_any_cotenant_mix_preserves_every_jobs_bits(payload):
    report = run_service(payload, verify_solo=True)
    # the tentpole guarantee: each job's digest and per-subnet losses are
    # bitwise equal to its solo run, whatever the co-tenants did
    assert report["ok"]
    for job in report["jobs"]:
        assert job["digest_matches_solo"], job["name"]
        assert job["losses_match_solo"], job["name"]
        # segments partition the stream without gaps or overlap
        cursor = 0
        for seg in job["segments"]:
            assert seg["from"] == cursor
            assert seg["to"] > seg["from"]
            cursor = seg["to"]
        assert cursor == job["subnets"]
        # rigid jobs never changed shape
        if not job["elastic"]:
            assert len(job["segments"]) == 1
            assert job["resizes"] == 0 and job["preemptions"] == 0


@settings(max_examples=8, deadline=None)
@given(payload=job_mixes())
def test_service_run_leaves_a_clean_valid_fleet(payload):
    manager = ClusterManager(ClusterSpec(num_gpus=payload["total_gpus"]))
    scheduler = JobScheduler(manager, quantum=payload["quantum"])

    # live co-tenancy invariant, checked at every trace event: leased
    # slot sets are disjoint and within the fleet
    def check(_event):
        seen = set()
        for lease in manager._live.values():
            slots = set(lease.slots)
            assert slots.isdisjoint(seen)
            assert slots <= set(range(manager.total_gpus))
            seen |= slots
        assert len(seen) == manager.leased_gpus

    scheduler.trace.listeners.append(check)
    for entry in payload["jobs"]:
        scheduler.submit(JobSpec.from_payload(entry))
    report = scheduler.run()
    assert validate_trace(scheduler.trace) == []
    assert manager.available_gpus == manager.total_gpus
    assert manager.free_slots() == tuple(range(manager.total_gpus))
    assert len(report["jobs"]) == len(payload["jobs"])


@st.composite
def lease_op_sequences(draw):
    """Interleaved acquire/release walks over an 8-slot fleet."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["acquire", "release"]),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=1,
            max_size=40,
        )
    )


@settings(max_examples=50, deadline=None)
@given(ops=lease_op_sequences())
def test_manager_ownership_model(ops):
    """The manager against a reference model: every grant is disjoint
    and lowest-slots-first, every release restores exactly its slots,
    and invalid requests raise without corrupting state."""
    manager = ClusterManager(ClusterSpec(num_gpus=8))
    live = []
    model_free = set(range(8))
    for op, arg in ops:
        if op == "acquire":
            if arg > len(model_free):
                with pytest.raises(LeaseError):
                    manager.acquire("job", arg)
            else:
                lease = manager.acquire("job", arg)
                assert lease.slots == tuple(sorted(model_free)[:arg])
                model_free -= set(lease.slots)
                live.append(lease)
        elif live:
            lease = live.pop(arg % len(live))
            lease.release()
            model_free |= set(lease.slots)
            with pytest.raises(LeaseError):
                lease.release()
        assert manager.free_slots() == tuple(sorted(model_free))
        assert manager.leased_gpus == 8 - len(model_free)
    for lease in live:
        assert lease.active
        assert manager._owner[lease.slots[0]] == lease.lease_id
