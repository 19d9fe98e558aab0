"""Fault-kind interactions: compound and edge-timed non-fatal schedules."""

import pytest

from repro.baselines import naspipe
from repro.errors import ConfigError, DeadlockError
from repro.ft import (
    FaultEvent,
    FaultSchedule,
    RecoverySpec,
    run_uninterrupted,
    run_with_recovery,
)
from repro.obs import validate_trace
from repro.supernet.search_space import get_search_space

from readback_reference import events_of


@pytest.fixture(scope="module")
def mix_space():
    return get_search_space("NLP.c3").scaled(
        name="mix", num_blocks=8, functional_width=16
    )


@pytest.fixture(scope="module")
def mix_baseline(mix_space):
    return run_uninterrupted(mix_space, naspipe(), num_gpus=4, steps=20, seed=11)


# ----------------------------------------------------------------------
# schedule validation hardening
# ----------------------------------------------------------------------
def test_overlapping_nic_windows_rejected():
    with pytest.raises(ConfigError) as exc:
        FaultSchedule(
            [
                FaultEvent(
                    "nic_degrade", 10.0, target=1, duration_ms=100.0, magnitude=2.0
                ),
                FaultEvent(
                    "nic_degrade", 50.0, target=1, duration_ms=10.0, magnitude=2.0
                ),
            ]
        )
    assert "overlaps" in str(exc.value)
    # touching windows and distinct links are both fine
    FaultSchedule(
        [
            FaultEvent(
                "nic_degrade", 10.0, target=1, duration_ms=40.0, magnitude=2.0
            ),
            FaultEvent(
                "nic_degrade", 50.0, target=1, duration_ms=10.0, magnitude=2.0
            ),
            FaultEvent(
                "nic_degrade", 20.0, target=2, duration_ms=100.0, magnitude=2.0
            ),
        ]
    )


def test_unknown_payload_keys_name_the_event():
    with pytest.raises(ConfigError) as exc:
        FaultSchedule.from_payload(
            [
                {"kind": "copy_stall", "time_ms": 5.0, "duration_ms": 1.0},
                {"kind": "copy_stall", "time_ms": 9.0, "durationms": 1.0},
            ]
        )
    message = str(exc.value)
    assert "fault event 1" in message and "durationms" in message


def test_deadlock_error_carries_blocked_edges():
    blocked = {0: [{"subnet": 4, "waiting_on": 2, "layer": "blk3"}], 1: []}
    error = DeadlockError("2 tasks", blocked=blocked)
    assert error.blocked == blocked
    assert "blocked edges by stage" in str(error)
    bare = DeadlockError("2 tasks")
    assert bare.blocked is None
    assert "blocked edges" not in str(bare)


# ----------------------------------------------------------------------
# fault kinds interacting with engine machinery and each other
# ----------------------------------------------------------------------
def test_copy_stall_during_warmup_prefetch(mix_space, mix_baseline):
    """A stall landing while the cold-start prefetches are still in
    flight delays the first dispatches but changes nothing else."""
    faults = FaultSchedule(
        [FaultEvent("copy_stall", 1.0, target=0, duration_ms=80.0)]
    )
    result = run_uninterrupted(
        mix_space, naspipe(), num_gpus=4, steps=20, seed=11, faults=faults
    )
    assert result.subnets_completed == 20
    assert result.digest == mix_baseline.digest
    assert result.losses == mix_baseline.losses


def test_nic_degrade_across_checkpoint_cut(mix_space, mix_baseline, tmp_path):
    """A degrade window open while consistent cuts materialise must not
    leak into the checkpoints: a cut is stream state, not timing."""
    schedule = FaultSchedule(
        [
            FaultEvent(
                "nic_degrade",
                30.0,
                target=1,
                duration_ms=mix_baseline.makespan_ms,
                magnitude=6.0,
            )
        ]
    )
    result = run_with_recovery(
        mix_space,
        naspipe(),
        schedule,
        num_gpus=4,
        steps=20,
        seed=11,
        checkpoint_dir=tmp_path,
        spec=RecoverySpec(checkpoint_interval=4),
    )
    assert result.num_attempts == 1  # degraded-mode continue, no restart
    assert list(events_of(result.final.trace, "checkpoint_commit"))
    assert result.digest == mix_baseline.digest
    assert result.losses == mix_baseline.losses


def test_task_error_backoff_escalates(mix_space, mix_baseline):
    faults = FaultSchedule(
        [FaultEvent("task_error", 100.0, target=0, magnitude=6)]
    )
    result = run_uninterrupted(
        mix_space, naspipe(), num_gpus=4, steps=20, seed=11, faults=faults
    )
    assert result.task_retries == 6
    retries = list(events_of(result.trace, "task_retry"))
    assert [e.attr("attempt") for e in retries] == [1, 2, 3, 4, 5, 6]
    assert [e.attr("delay_ms") for e in retries] == [
        2.0 * 2**k for k in range(6)
    ]
    assert result.digest == mix_baseline.digest


def test_compound_fault_storm_with_mitigation(mix_space, mix_baseline):
    """All three non-fatal kinds in one overlapping window, mitigation
    armed: the run completes, retries fire, and the bits hold."""
    faults = FaultSchedule(
        [
            FaultEvent(
                "nic_degrade", 60.0, target=1, duration_ms=400.0, magnitude=8.0
            ),
            FaultEvent("copy_stall", 80.0, target=2, duration_ms=60.0),
            FaultEvent("copy_stall", 120.0, target=2, duration_ms=60.0),
            FaultEvent("task_error", 100.0, target=3, magnitude=2),
        ]
    )
    result = run_uninterrupted(
        mix_space,
        naspipe(),
        num_gpus=4,
        steps=20,
        seed=11,
        faults=faults,
        degradation=True,
    )
    assert result.subnets_completed == 20
    assert result.task_retries == 2
    assert result.digest == mix_baseline.digest
    assert result.losses == mix_baseline.losses
    assert validate_trace(result.trace) == []
