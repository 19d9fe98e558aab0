"""Fault schedules, injection mechanics, and trace instrumentation."""

import json

import pytest

from repro.baselines import naspipe
from repro.errors import ConfigError
from repro.ft import FaultEvent, FaultSchedule, run_uninterrupted, run_with_recovery
from repro.obs import validate_trace
from repro.obs.events import EVENT_SCHEMAS
from repro.seeding import SeedSequenceTree
from repro.supernet.search_space import get_search_space


@pytest.fixture(scope="module")
def ft_space():
    return get_search_space("NLP.c3").scaled(
        name="ft", num_blocks=8, functional_width=16
    )


@pytest.fixture(scope="module")
def csp_baseline(ft_space):
    return run_uninterrupted(ft_space, naspipe(), num_gpus=4, steps=20, seed=11)


# ----------------------------------------------------------------------
# schedule model
# ----------------------------------------------------------------------
def test_fault_event_validation():
    with pytest.raises(ConfigError):
        FaultEvent("meteor_strike", 10.0)
    with pytest.raises(ConfigError):
        FaultEvent("gpu_crash", -1.0)
    with pytest.raises(ConfigError):
        FaultEvent("gpu_crash", 10.0, target=-2)
    with pytest.raises(ConfigError):
        FaultEvent("nic_degrade", 10.0, magnitude=0.5)  # must slow down
    with pytest.raises(ConfigError):
        FaultEvent("task_error", 10.0, magnitude=0.0)  # failure count
    assert FaultEvent("gpu_crash", 5.0, target=1).fatal
    assert not FaultEvent("copy_stall", 5.0, duration_ms=3.0).fatal


@pytest.mark.parametrize("field", ["time_ms", "duration_ms", "magnitude"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_fault_event_rejects_non_finite_numbers(field, value):
    """JSON carries the literals ``NaN`` / ``Infinity``, and NaN passes
    every ``< 0`` range check, so a config file can deliver them."""
    entry = {"kind": "nic_degrade", "time_ms": 10.0, "target": 0,
             "duration_ms": 5.0, "magnitude": 2.0, field: value}
    with pytest.raises(ConfigError, match=f"fault event 0: {field} must be a finite number"):
        FaultSchedule.from_json(json.dumps([entry]))


def test_schedule_sorts_and_serialises(tmp_path):
    schedule = FaultSchedule(
        [
            FaultEvent("task_error", 300.0, target=2, magnitude=2),
            FaultEvent("gpu_crash", 100.0, target=0),
            FaultEvent("nic_degrade", 200.0, target=1, duration_ms=50.0, magnitude=4.0),
        ]
    )
    assert [e.time_ms for e in schedule] == [100.0, 200.0, 300.0]
    assert sum(event.fatal for event in schedule) == 1

    # payload / JSON / file round-trips all preserve the schedule
    assert FaultSchedule.from_payload(schedule.to_payload()).events == schedule.events
    assert FaultSchedule.from_json(schedule.to_json()).events == schedule.events
    path = tmp_path / "faults.json"
    schedule.save(path)
    assert FaultSchedule.load(path).events == schedule.events
    # the JSON is plain data a human can write by hand
    payload = json.loads(schedule.to_json())
    assert payload[0]["kind"] == "gpu_crash"


def test_mtbf_sampling_is_deterministic():
    a = FaultSchedule.from_mtbf(SeedSequenceTree(7), 100.0, 1000.0, num_gpus=4)
    b = FaultSchedule.from_mtbf(SeedSequenceTree(7), 100.0, 1000.0, num_gpus=4)
    assert a.events == b.events
    assert len(a) > 0
    assert all(e.time_ms < 1000.0 for e in a)
    # a different mtbf draws from a different named stream
    c = FaultSchedule.from_mtbf(SeedSequenceTree(7), 200.0, 1000.0, num_gpus=4)
    assert c.events != a.events
    with pytest.raises(ConfigError):
        FaultSchedule.from_mtbf(SeedSequenceTree(7), -5.0, 1000.0, num_gpus=4)
    with pytest.raises(ConfigError):
        FaultSchedule.from_mtbf(
            SeedSequenceTree(7), 100.0, 1000.0, num_gpus=4, kinds=["bad_kind"]
        )


# ----------------------------------------------------------------------
# non-fatal injection: degraded mode, stalls, transient retries
# ----------------------------------------------------------------------
def test_non_fatal_faults_slow_but_do_not_change_csp_bits(
    ft_space, csp_baseline, tmp_path
):
    """NIC degradation, copy stalls and transient task errors perturb
    *timing* only; CSP's final weights are timing-independent."""
    schedule = FaultSchedule(
        [
            FaultEvent("nic_degrade", 80.0, target=1, duration_ms=300.0, magnitude=8.0),
            FaultEvent("copy_stall", 150.0, target=2, duration_ms=40.0),
            FaultEvent("task_error", 200.0, target=0, magnitude=3),
        ]
    )
    result = run_with_recovery(
        ft_space,
        naspipe(),
        schedule,
        num_gpus=4,
        steps=20,
        seed=11,
        checkpoint_dir=tmp_path,
    )
    assert result.num_attempts == 1  # nothing fatal: degraded-mode continue
    assert result.fault_count == 3
    assert result.task_retries == 3  # magnitude-3 fails 3 consecutive dispatches
    assert result.makespan_ms > csp_baseline.makespan_ms
    assert result.digest == csp_baseline.digest
    assert result.losses == csp_baseline.losses


def test_nic_degrade_restores_bandwidth(ft_space, tmp_path):
    schedule = FaultSchedule(
        [FaultEvent("nic_degrade", 50.0, target=0, duration_ms=100.0, magnitude=4.0)]
    )
    result = run_with_recovery(
        ft_space,
        naspipe(),
        schedule,
        num_gpus=4,
        steps=12,
        seed=3,
        checkpoint_dir=tmp_path,
    )
    # the restoration event fired inside the run: the trace records the
    # injection and the run still completed everything
    assert result.fault_count == 1
    assert result.subnets_completed == 12


def test_fatal_fault_interrupts_engine(ft_space, csp_baseline, tmp_path):
    """A crash clears the event queue and the result says so."""
    schedule = FaultSchedule(
        [FaultEvent("gpu_crash", csp_baseline.makespan_ms / 2, target=1)]
    )
    result = run_with_recovery(
        ft_space,
        naspipe(),
        schedule,
        num_gpus=4,
        steps=20,
        seed=11,
        checkpoint_dir=tmp_path,
    )
    first = result.results[0]
    assert first.interrupted
    assert first.interrupt_kind == "gpu_crash"
    assert first.interrupt_time_ms == pytest.approx(csp_baseline.makespan_ms / 2)
    assert first.subnets_completed < 20
    assert not result.final.interrupted


def test_faults_aimed_at_absent_hardware_are_skipped(ft_space, tmp_path):
    """An elastic restart may not have the schedule's target GPU."""
    schedule = FaultSchedule(
        [
            FaultEvent("gpu_crash", 1e9, target=99),  # no such stage
            FaultEvent("nic_degrade", 1e9, target=50, magnitude=2.0),
            FaultEvent("host_crash", 1e9, target=40),
        ]
    )
    result = run_with_recovery(
        ft_space,
        naspipe(),
        schedule,
        num_gpus=4,
        steps=12,
        seed=3,
        checkpoint_dir=tmp_path,
    )
    assert result.num_attempts == 1
    assert result.fault_count == 0


# ----------------------------------------------------------------------
# trace instrumentation
# ----------------------------------------------------------------------
def test_faulted_run_traces_validate_against_schema(ft_space, csp_baseline, tmp_path):
    schedule = FaultSchedule(
        [
            FaultEvent("task_error", 100.0, target=0, magnitude=1),
            FaultEvent("gpu_crash", csp_baseline.makespan_ms / 2, target=1),
        ]
    )
    result = run_with_recovery(
        ft_space,
        naspipe(),
        schedule,
        num_gpus=4,
        steps=20,
        seed=11,
        checkpoint_dir=tmp_path,
    )
    emitted = set()
    for attempt_result in result.results:
        assert validate_trace(attempt_result.trace) == []
        emitted |= set(attempt_result.trace.event_counts())
    # the fault-tolerance plane actually showed up, with declared kinds
    for kind in (
        "fault_inject",
        "gpu_down",
        "gpu_up",
        "checkpoint_begin",
        "checkpoint_commit",
        "recovery_begin",
        "recovery_done",
        "task_retry",
    ):
        assert kind in EVENT_SCHEMAS
        assert kind in emitted, f"{kind} never emitted in the crash scenario"


def test_faulted_trace_exports_to_chrome_format(ft_space, csp_baseline, tmp_path):
    from goldens import to_perfetto
    from repro.obs import validate_chrome_trace

    schedule = FaultSchedule(
        [FaultEvent("gpu_crash", csp_baseline.makespan_ms / 2, target=1)]
    )
    result = run_with_recovery(
        ft_space,
        naspipe(),
        schedule,
        num_gpus=4,
        steps=20,
        seed=11,
        checkpoint_dir=tmp_path,
    )
    for attempt_result in result.results:
        assert validate_chrome_trace(to_perfetto(attempt_result.trace)) == []
