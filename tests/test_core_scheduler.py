"""CSP scheduler (Algorithm 2) tests."""

import pytest

import repro.core.scheduler as scheduler_module
from repro.core.dependency import DependencyTracker
from repro.core.scheduler import CspScheduler
from repro.supernet.subnet import Subnet


def _setup(rows):
    subnets = {i: Subnet(i, tuple(row)) for i, row in enumerate(rows)}
    tracker = DependencyTracker()
    for subnet in subnets.values():
        tracker.register(subnet)
    return subnets, tracker


def _stage_layers(subnets, lo, hi):
    def fn(subnet_id):
        return subnets[subnet_id].layers_in_range(lo, hi)

    return fn


def test_picks_lowest_clear_id():
    subnets, tracker = _setup([(0, 0), (0, 1), (1, 1)])
    scheduler = CspScheduler()
    # subnet 1 blocked by 0 at block 0; subnet 2 blocked by 1 at block 1.
    decision = scheduler.schedule([1, 2], _stage_layers(subnets, 0, 2), tracker)
    assert not decision.found
    tracker.mark_finished(0)
    decision = scheduler.schedule([1, 2], _stage_layers(subnets, 0, 2), tracker)
    assert (decision.qidx, decision.qval) == (0, 1)


def test_skips_blocked_head_for_later_independent():
    subnets, tracker = _setup([(0, 0), (0, 0), (1, 1)])
    scheduler = CspScheduler()
    decision = scheduler.schedule([1, 2], _stage_layers(subnets, 0, 2), tracker)
    assert decision.qval == 2  # 1 blocked by 0, 2 independent


def test_skip_set_excludes_entries():
    subnets, tracker = _setup([(0, 0), (1, 1), (2, 2)])
    scheduler = CspScheduler()
    decision = scheduler.schedule(
        [0, 1, 2], _stage_layers(subnets, 0, 2), tracker, skip={0}
    )
    assert decision.qval == 1


def test_empty_queue_returns_none():
    _subnets, tracker = _setup([(0, 0)])
    scheduler = CspScheduler()
    decision = scheduler.schedule([], lambda sid: [], tracker)
    assert not decision.found
    assert (decision.qidx, decision.qval) == (-1, -1)


def test_per_stage_slicing_limits_conflicts():
    # Conflict only at block 2: stage [0,2) of subnet 1 is clear while
    # stage [2,3) is blocked — the decentralised check in action.
    subnets, tracker = _setup([(0, 0, 9), (1, 1, 9)])
    scheduler = CspScheduler()
    early = scheduler.schedule([1], _stage_layers(subnets, 0, 2), tracker)
    assert early.qval == 1
    late = scheduler.schedule([1], _stage_layers(subnets, 2, 3), tracker)
    assert not late.found


def test_conservative_mode_waits_for_stage_finish():
    """Algorithm 2 verbatim clears an earlier subnet only once its
    backward ran at this stage; the exact mode clears as soon as the
    specific shared layer's WRITE committed."""
    subnets, tracker = _setup([(5, 0), (5, 1)])
    # Subnet 0 released the shared layer (block0, choice5) but has not
    # finished its backward at this stage.
    tracker.release_layers(0, [(0, 5)])
    conservative = CspScheduler(mode="conservative").schedule(
        [1],
        _stage_layers(subnets, 0, 1),
        tracker,
        stage_finished=set(),
        subnet_of=lambda sid: subnets[sid],
    )
    assert not conservative.found
    exact = CspScheduler(mode="scan").schedule(
        [1], _stage_layers(subnets, 0, 1), tracker
    )
    assert exact.qval == 1


def test_conservative_mode_requires_subnet_of():
    subnets, tracker = _setup([(0,), (0,)])
    with pytest.raises(ValueError):
        CspScheduler(mode="conservative").schedule(
            [1], _stage_layers(subnets, 0, 1), tracker, stage_finished=set()
        )


def test_conservative_honours_stage_finished():
    subnets, tracker = _setup([(3, 3), (3, 3)])
    scheduler = CspScheduler(mode="conservative")
    decision = scheduler.schedule(
        [1],
        _stage_layers(subnets, 0, 1),
        tracker,
        stage_finished={0},
        subnet_of=lambda sid: subnets[sid],
    )
    assert decision.qval == 1


@pytest.mark.parametrize("mode", ["loose", "exact"])
def test_invalid_mode_rejected(mode):
    with pytest.raises(ValueError):
        CspScheduler(mode=mode)


def test_scheduler_counts_calls():
    subnets, tracker = _setup([(0,), (1,)])
    scheduler = CspScheduler()
    scheduler.schedule([0, 1], _stage_layers(subnets, 0, 1), tracker)
    assert scheduler.calls == 1
    assert scheduler.scans >= 1


# ----------------------------------------------------------------------
# timing instrumentation
# ----------------------------------------------------------------------
def _call_n(scheduler, n):
    subnets, tracker = _setup([(0,), (1,)])
    for _ in range(n):
        scheduler.schedule([0, 1], _stage_layers(subnets, 0, 1), tracker)
    return scheduler


def test_timing_sampled_times_one_call_per_interval():
    every = scheduler_module._SAMPLE_EVERY
    scheduler = _call_n(CspScheduler(timing="sampled"), 2 * every + 1)
    # calls 1, every+1 and 2*every+1 hit the sample slot
    assert scheduler.calls == 2 * every + 1
    assert scheduler.timed_calls == 3
    assert scheduler.stats()["timing"] == "sampled"


def test_timing_full_times_every_call():
    scheduler = _call_n(CspScheduler(timing="full"), 5)
    assert scheduler.timed_calls == 5
    assert scheduler.total_time_s > 0.0
    assert scheduler.mean_call_time_s == pytest.approx(
        scheduler.total_time_s / 5
    )


@pytest.mark.parametrize("timing", ["sometimes", "off"])
def test_timing_mode_validated(timing):
    with pytest.raises(ValueError):
        CspScheduler(timing=timing)


def test_stats_reports_timing_counters():
    scheduler = _call_n(CspScheduler(timing="full"), 3)
    stats = scheduler.stats()
    assert stats["timed_calls"] == 3
    assert stats["mean_call_us"] > 0.0
