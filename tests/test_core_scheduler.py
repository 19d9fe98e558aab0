"""CSP scheduler (Algorithm 2) tests."""

import itertools

import pytest

from repro.core.dependency import DependencyTracker
from repro.core.scheduler import CspScheduler
from repro.experiments.scheduler_cost import _schedule as pseudocode
from repro.supernet.subnet import Subnet

SCOPE = "stage"


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


@pytest.fixture
def ask():
    """Index ``queue``'s stage slices under a fresh scope (as the CSP
    policy's queue observer does), then ask a default scheduler."""
    scheduler = CspScheduler()
    scopes = itertools.count()

    def ask(queue, stage_layers, tracker):
        scope = next(scopes)
        for subnet_id in queue:
            tracker.index_add(scope, subnet_id, stage_layers(subnet_id))
        return scheduler.schedule(queue, tracker, scope)

    ask.scheduler = scheduler
    return ask


def test_picks_lowest_clear_id(ask):
    subnets, tracker = _setup([(0, 0), (0, 1), (1, 1)])
    # subnet 1 blocked by 0 at block 0; subnet 2 blocked by 1 at block 1.
    decision = ask([1, 2], _stage_layers(subnets, 0, 2), tracker)
    assert not decision.found
    tracker.mark_finished(0)
    decision = ask([1, 2], _stage_layers(subnets, 0, 2), tracker)
    assert (decision.qidx, decision.qval) == (0, 1)


def test_skips_blocked_head_for_later_independent(ask):
    subnets, tracker = _setup([(0, 0), (0, 0), (1, 1)])
    decision = ask([1, 2], _stage_layers(subnets, 0, 2), tracker)
    assert decision.qval == 2  # 1 blocked by 0, 2 independent


def test_empty_or_unpopulated_scope_returns_none(ask):
    subnets, tracker = _setup([(0, 0)])
    decision = ask([], lambda sid: [], tracker)  # scope never populated
    assert not decision.found
    assert (decision.qidx, decision.qval) == (-1, -1)
    tracker.index_add(SCOPE, 0, subnets[0].layer_ids())
    tracker.index_discard(SCOPE, 0)  # scope exists, now empty
    assert not ask.scheduler.schedule([], tracker, SCOPE).found


def test_per_stage_slicing_limits_conflicts(ask):
    # Conflict only at block 2: stage [0,2) of subnet 1 is clear while
    # stage [2,3) is blocked — the decentralised check in action.
    subnets, tracker = _setup([(0, 0, 9), (1, 1, 9)])
    early = ask([1], _stage_layers(subnets, 0, 2), tracker)
    assert early.qval == 1
    late = ask([1], _stage_layers(subnets, 2, 3), tracker)
    assert not late.found


def test_the_pseudocode_waits_for_stage_finish(ask):
    """Algorithm 2's pseudocode (the scheduler-cost experiment's
    function) clears an earlier subnet only once it is in L_f; the
    scheduler clears as soon as the specific shared layer's WRITE
    committed."""
    subnets, tracker = _setup([(5, 0), (5, 1)])
    # Subnet 0 released the shared layer (block0, choice5) but has not
    # finished its backward at this stage.
    tracker.release_layers(0, [(0, 5)])
    stage_layers = _stage_layers(subnets, 0, 1)
    assert pseudocode([1], stage_layers, subnets, set()) == (-1, 1)
    exact = ask([1], stage_layers, tracker)
    assert exact.qval == 1


def test_the_pseudocode_honours_stage_finished():
    """Once the earlier subnet is in L_f, the pseudocode clears the
    later one even though the tracker still holds the shared layers."""
    subnets, tracker = _setup([(3, 3), (3, 3)])
    stage_layers = _stage_layers(subnets, 0, 1)
    assert not tracker.is_clear(1, stage_layers(1))
    assert pseudocode([1], stage_layers, subnets, {0}) == (0, 1)


def test_scheduler_counts_calls(ask):
    subnets, tracker = _setup([(0,), (1,)])
    ask([0, 1], _stage_layers(subnets, 0, 1), tracker)
    assert ask.scheduler.calls == 1
    assert ask.scheduler.ready_pops == 1
