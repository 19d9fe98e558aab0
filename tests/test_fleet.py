"""Fleet-scale unreliability: storm schedules, the revocation model on
the cluster manager, and the fleet chaos harness end to end.

The tentpole claim (docs/FAULT_TOLERANCE.md § Fleet-scale faults):
seeded preemption storms revoking leases out from under three tenant
classes cannot change a surviving CSP tenant's bits, leak a lease, or
deadlock either plane — and the whole sweep report is byte-stable.
"""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigError, LeaseError
from repro.ft import (
    ALL_KINDS,
    FAULT_KINDS,
    FLEET_KINDS,
    FaultEvent,
    FaultSchedule,
    fleet_report_json,
    fleet_sweep,
    run_fleet_scenario,
)
from repro.nn.optim import MomentumSGD
from repro.seeding import SeedSequenceTree
from repro.service import ClusterManager
from repro.sim.cluster import ClusterSpec

# CI-sized three-tenant mix: elastic CSP + rigid PipeDream + serving,
# same shape as examples/chaos_fleet_demo.json but smaller.
FLEET_CONFIG = {
    "fleet_slots": [8],
    "scenarios": 1,
    "seed": 7,
    "storm_mtbf_fraction": 0.3,
    "slots_per_node": 4,
    "node_down_weight": 0.25,
    "preempt_outage_ms": 100.0,
    "node_outage_ms": 220.0,
    "quantum": 4,
    "resize_cost_ms": 20.0,
    "max_restarts": 3,
    "requeue_backoff_ms": 20.0,
    "serving": {
        "space": "NLP.c3",
        "space_overrides": {"num_blocks": 8, "functional_width": 16},
        "num_gpus": 2,
        "eval_batch": 4,
        "requests": 40,
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
    },
    "jobs": [
        {
            "name": "elastic",
            "space": "NLP.c3",
            "space_overrides": {"num_blocks": 8, "functional_width": 16},
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
            "space_overrides": {"num_blocks": 8, "functional_width": 16},
            "system": "PipeDream",
            "subnets": 6,
            "seed": 7,
            "priority": 1,
            "min_gpus": 2,
            "max_gpus": 2,
        },
    ],
}


# ----------------------------------------------------------------------
# fleet fault kinds and storm generation
# ----------------------------------------------------------------------
def test_fleet_kinds_are_disjoint_from_engine_kinds():
    assert not set(FLEET_KINDS) & set(FAULT_KINDS)
    assert set(ALL_KINDS) == set(FLEET_KINDS) | set(FAULT_KINDS)


def test_fleet_event_requires_positive_outage():
    with pytest.raises(ConfigError):
        FaultEvent("slot_preempt", 10.0, target=1)  # duration_ms 0
    with pytest.raises(ConfigError):
        FaultEvent("node_down", 10.0, target=0, duration_ms=0.0)
    event = FaultEvent("slot_preempt", 10.0, target=1, duration_ms=50.0)
    assert not event.fatal  # fleet kinds are plane-level, not fail-stop


def test_storm_is_a_pure_function_of_the_seed():
    kwargs = dict(mtbf_ms=40.0, horizon_ms=500.0, fleet_slots=8)
    first = FaultSchedule.fleet_from_mtbf(SeedSequenceTree(3), **kwargs)
    second = FaultSchedule.fleet_from_mtbf(SeedSequenceTree(3), **kwargs)
    assert first.to_payload() == second.to_payload()
    assert len(first) > 0
    other = FaultSchedule.fleet_from_mtbf(SeedSequenceTree(4), **kwargs)
    assert first.to_payload() != other.to_payload()


def test_storm_respects_horizon_kinds_and_targets():
    storm = FaultSchedule.fleet_from_mtbf(
        SeedSequenceTree(11),
        mtbf_ms=30.0,
        horizon_ms=600.0,
        fleet_slots=8,
        slots_per_node=4,
    )
    for event in storm:
        assert event.kind in FLEET_KINDS
        assert 0.0 <= event.time_ms < 600.0
        assert event.duration_ms > 0
        if event.kind == "slot_preempt":
            assert 0 <= event.target < 8
        else:  # node index, 8 slots / 4 per node = 2 nodes
            assert 0 <= event.target < 2


def test_node_down_weight_extremes():
    kwargs = dict(mtbf_ms=25.0, horizon_ms=500.0, fleet_slots=8)
    seeds = SeedSequenceTree(5)
    all_preempt = FaultSchedule.fleet_from_mtbf(
        seeds, node_down_weight=0.0, **kwargs
    )
    assert {e.kind for e in all_preempt} == {"slot_preempt"}
    all_node = FaultSchedule.fleet_from_mtbf(
        SeedSequenceTree(5), node_down_weight=1.0, **kwargs
    )
    assert {e.kind for e in all_node} == {"node_down"}


def test_storm_generation_validates_its_knobs():
    seeds = SeedSequenceTree(1)
    with pytest.raises(ConfigError):
        FaultSchedule.fleet_from_mtbf(
            seeds, mtbf_ms=0.0, horizon_ms=100.0, fleet_slots=4
        )
    with pytest.raises(ConfigError):
        FaultSchedule.fleet_from_mtbf(
            seeds, mtbf_ms=10.0, horizon_ms=100.0, fleet_slots=0
        )
    with pytest.raises(ConfigError):
        FaultSchedule.fleet_from_mtbf(
            seeds,
            mtbf_ms=10.0,
            horizon_ms=100.0,
            fleet_slots=4,
            node_down_weight=1.5,
        )


def test_engine_from_mtbf_still_rejects_fleet_kinds():
    # the engine-level sampler must not silently start drawing fleet
    # kinds (that would change every seeded availability sweep)
    with pytest.raises(ConfigError):
        FaultSchedule.from_mtbf(
            SeedSequenceTree(1),
            mtbf_ms=10.0,
            horizon_ms=100.0,
            num_gpus=4,
            kinds=("slot_preempt",),
        )


# ----------------------------------------------------------------------
# the revocation model on the cluster manager
# ----------------------------------------------------------------------
def _manager(n=4):
    return ClusterManager(ClusterSpec(num_gpus=n))


def test_revoke_free_slot_enters_down_pool():
    manager = _manager()
    assert manager.revoke(2, fault="preempt@2") is None
    assert manager.is_down(2)
    assert 2 not in manager.free_slots()
    manager.mark_up(2)
    assert manager.free_slots() == (0, 1, 2, 3)
    manager.mark_up(2)  # idempotent
    assert manager.free_slots() == (0, 1, 2, 3)


def test_revoke_leased_slot_invalidates_the_owning_lease():
    manager = _manager()
    lease = manager.acquire("job", 3)  # slots 0,1,2
    revoked = manager.revoke(1, fault="slot_preempt@1 t=50ms")
    assert revoked is lease
    assert not manager.is_active(lease)
    assert lease.revoked_by == "slot_preempt@1 t=50ms"
    assert manager.revocation_of(lease) == "slot_preempt@1 t=50ms"
    # surviving slots stay reserved (residual) until the holder releases
    assert manager.residual_slots() == (0, 2)
    assert manager.leased_gpus == 0  # residuals are not "live leased"
    with pytest.raises(LeaseError) as err:
        lease.materialize()
    assert "slot_preempt@1" in str(err.value)
    # idempotent release: first call frees the residual, later calls no-op
    lease.release()
    assert manager.residual_slots() == ()
    assert manager.free_slots() == (0, 2, 3)
    lease.release()
    assert manager.free_slots() == (0, 2, 3)
    manager.mark_up(1)
    assert manager.free_slots() == (0, 1, 2, 3)
    assert manager.total_revocations == 1


def test_revoking_a_residual_slot_strikes_it_too():
    manager = _manager()
    lease = manager.acquire("job", 3)
    assert manager.revoke(0, fault="first") is lease
    # second strike on the same lease's surviving slot: no new revocation
    assert manager.revoke(2, fault="second") is None
    assert manager.residual_slots() == (1,)
    assert sorted(manager.down_slots()) == [0, 2]
    lease.release()
    manager.mark_up(0)
    manager.mark_up(2)
    assert manager.free_slots() == (0, 1, 2, 3)
    assert manager.total_revocations == 1


def test_revoke_is_idempotent_while_down_and_bounds_checked():
    manager = _manager()
    manager.revoke(1, fault="x")
    assert manager.revoke(1, fault="y") is None  # already down: no-op
    assert manager.down_slots() == (1,)
    with pytest.raises(LeaseError):
        manager.revoke(99)


def test_strict_double_release_still_raises():
    # the idempotence is *only* for revoked leases; a plain double
    # release is still an ownership violation
    manager = _manager()
    lease = manager.acquire("job", 2)
    lease.release()
    with pytest.raises(LeaseError):
        lease.release()


# ----------------------------------------------------------------------
# the harness end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sweep_report():
    return fleet_sweep(FLEET_CONFIG)


def test_fleet_sweep_passes_the_invariant_suite(sweep_report):
    assert sweep_report["ok"], sweep_report["violations"]
    assert sweep_report["total_scenarios"] == 1
    row = sweep_report["scenarios"][0]
    assert row["storm_events"] > 0
    for job in row["jobs"]:
        assert job["status"] in ("done", "failed")
        if job["status"] == "done":
            assert job["digest_ok"]
    serving = row["serving"]
    assert serving["requests"] == 40
    assert serving["completed"] + serving["shed"] <= 40
    # completed + hit + shed covers everything (invariant 4 held)
    assert not row["violations"]


def test_fleet_report_is_byte_deterministic(sweep_report):
    again = fleet_sweep(FLEET_CONFIG)
    assert fleet_report_json(sweep_report) == fleet_report_json(again)


def test_run_fleet_scenario_leaves_a_clean_fleet():
    row = run_fleet_scenario(
        FLEET_CONFIG, fleet_slots=8, storm_seed=31, horizon_ms=2000.0
    )
    assert row["violations"] == []
    assert row["revocations"] >= 0


def test_fleet_sweep_validates_its_config():
    with pytest.raises(ConfigError):
        fleet_sweep({**FLEET_CONFIG, "bogus_knob": 1})
    with pytest.raises(ConfigError):
        fleet_sweep({k: v for k, v in FLEET_CONFIG.items() if k != "jobs"})
    with pytest.raises(ConfigError):
        fleet_sweep({k: v for k, v in FLEET_CONFIG.items() if k != "serving"})
    with pytest.raises(ConfigError, match="scenarios"):
        fleet_sweep({**FLEET_CONFIG, "scenarios": 0})
    with pytest.raises(ConfigError, match="scenarios"):
        fleet_sweep({**FLEET_CONFIG, "fleet_slots": []})


DEMO = Path(__file__).resolve().parent.parent / "examples" / "chaos_fleet_demo.json"


def test_a_sweep_derives_each_seeded_input_once(monkeypatch):
    """One sweep of the demo draws each job's initial weights, batches and
    encoders once, however many planes the job builds (horizon run,
    scenarios, rigid restarts, solo baselines) — and still takes every
    optimizer step.  Before the jobs' seeded inputs were shared the same
    sweep made 1,022 draws, 877 of them for the weights of 181 layers;
    before the serving co-tenants shared theirs, 12 serving draws."""
    draws, steps = [], []
    fresh_generator, apply = SeedSequenceTree.fresh_generator, MomentumSGD.apply

    def counted_draw(self, name):
        draws.append((self.root_seed, name))
        return fresh_generator(self, name)

    def counted_step(self, layer, params, grads):
        steps.append(layer)
        return apply(self, layer, params, grads)

    monkeypatch.setattr(SeedSequenceTree, "fresh_generator", counted_draw)
    monkeypatch.setattr(MomentumSGD, "apply", counted_step)
    assert fleet_sweep(json.loads(DEMO.read_text()))["ok"]
    for stream in ("init/", "data/"):
        drawn = [draw for draw in draws if draw[1].startswith(stream)]
        assert drawn and len(drawn) == len(set(drawn)), stream
    assert len([draw for draw in draws if draw[1].startswith("init/")]) == 181
    # the serving co-tenants (horizon run and both scenarios) share one
    # source: each serving stream is drawn once, not once per co-tenant
    serving = sorted(name for _seed, name in draws if name.startswith("serving-"))
    assert serving == ["serving-arrivals", "serving-choices", "serving-mix", "serving-prefixes"]
    assert len(draws) <= 240
    # the shared inputs skipped no work: the parent's step count
    assert len(steps) == 1120
