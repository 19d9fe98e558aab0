"""DependencyTracker tests: Definition 2's exact per-layer semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dependency import DependencyTracker
from repro.errors import SchedulingError
from repro.supernet.subnet import Subnet


def _tracker(*subnets):
    tracker = DependencyTracker()
    for subnet in subnets:
        tracker.register(subnet)
    return tracker


def test_register_twice_raises():
    tracker = _tracker(Subnet(0, (1, 2)))
    with pytest.raises(SchedulingError):
        tracker.register(Subnet(0, (1, 2)))


def test_independent_subnets_always_clear():
    tracker = _tracker(Subnet(0, (0, 0)), Subnet(1, (1, 1)))
    assert tracker.is_clear(1, [(0, 1), (1, 1)])
    assert tracker.is_clear(0, [(0, 0), (1, 0)])


def test_shared_layer_blocks_until_release():
    a = Subnet(0, (5, 0))
    b = Subnet(1, (5, 1))
    tracker = _tracker(a, b)
    blocking = tracker.blocking_user(1, [(0, 5)])
    assert blocking == (0, (0, 5))
    tracker.release_layers(0, [(0, 5)])
    assert tracker.is_clear(1, [(0, 5)])


def test_release_is_per_layer():
    a = Subnet(0, (5, 7))
    b = Subnet(1, (5, 7))
    tracker = _tracker(a, b)
    tracker.release_layers(0, [(0, 5)])
    assert tracker.is_clear(1, [(0, 5)])
    assert not tracker.is_clear(1, [(1, 7)])


def test_earlier_only_blocks_later_not_vice_versa():
    a = Subnet(0, (3,))
    b = Subnet(1, (3,))
    tracker = _tracker(a, b)
    # The earlier subnet is never blocked by the later one.
    assert tracker.is_clear(0, [(0, 3)])
    assert not tracker.is_clear(1, [(0, 3)])


def test_mark_finished_releases_everything_and_leaves_the_tracker():
    a = Subnet(0, (1, 1))
    b = Subnet(1, (1, 1))
    tracker = _tracker(a, b)
    tracker.mark_finished(0)
    assert sorted(tracker._subnets) == [1]
    assert tracker.is_clear(1, [(0, 1), (1, 1)])
    tracker.mark_finished(1)
    assert tracker._subnets == {} and tracker._unreleased == {}
    # a finished subnet is gone: it neither releases nor finishes again
    with pytest.raises(SchedulingError, match="finished subnet 1"):
        tracker.release_layers(1, [(0, 1)])
    with pytest.raises(SchedulingError, match="finished subnet 1"):
        tracker.mark_finished(1)


def test_out_of_order_finish_leaves_the_tracker_at_once():
    """Elimination needs no finished prefix: a subnet that finishes
    behind an unfinished one leaves the subnet table at once."""
    subnets = [Subnet(i, (1, i % 2)) for i in range(3)]
    tracker = _tracker(*subnets)
    tracker.mark_finished(1)
    assert sorted(tracker._subnets) == [0, 2]
    assert not tracker.is_clear(2, [(0, 1)])  # 0 still holds block 0
    tracker.mark_finished(0)
    assert sorted(tracker._subnets) == [2]
    assert tracker.is_clear(2, [(0, 1), (1, 0)])
    tracker.mark_finished(2)
    assert tracker._subnets == {} and tracker._unreleased == {}


def test_release_and_elimination_leave_the_unreleased_lists():
    a = Subnet(0, (4,))
    b = Subnet(1, (4,))
    tracker = _tracker(a, b)
    assert tracker.unreleased_users((0, 4)) == [0, 1]
    tracker.release_layers(1, [(0, 4)])
    assert tracker.unreleased_users((0, 4)) == [0]
    tracker.mark_finished(0)
    assert tracker.unreleased_users((0, 4)) == []


def test_registration_out_of_sequence_order_raises():
    tracker = _tracker(Subnet(0, (1, 2)), Subnet(3, (1, 2)))
    with pytest.raises(SchedulingError, match="subnet 2 registered after subnet 3"):
        tracker.register(Subnet(2, (1, 2)))
    # the refused subnet left no trace; the next id in order still registers
    assert 2 not in tracker._subnets
    assert tracker.unreleased_users((0, 1)) == [0, 3]
    tracker.register(Subnet(4, (1, 2)))
    assert tracker.unreleased_users((0, 1)) == [0, 3, 4]
    # an unregistered id cannot be indexed: a lower id may still register
    with pytest.raises(SchedulingError, match="subnet 6 indexed before it registered"):
        tracker.index_add(0, 6, [(0, 1)])
    # in a recovered run, the ids below the resume cut are taken
    resumed = DependencyTracker()
    resumed.reserve_ids_below(5)
    with pytest.raises(SchedulingError, match="subnet 3 registered after subnet 4"):
        resumed.register(Subnet(3, (1, 2)))
    resumed.register(Subnet(5, (1, 2)))


def test_release_unregistered_raises():
    tracker = DependencyTracker()
    with pytest.raises(SchedulingError):
        tracker.release_layers(0, [(0, 0)])
    with pytest.raises(SchedulingError):
        tracker.mark_finished(0)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        min_size=2,
        max_size=10,
    )
)
@settings(max_examples=50, deadline=None)
def test_clearance_monotone_under_releases(choice_rows):
    """Property: releasing layers never makes a clear subnet blocked."""
    subnets = [Subnet(i, tuple(row)) for i, row in enumerate(choice_rows)]
    tracker = DependencyTracker()
    for subnet in subnets:
        tracker.register(subnet)
    last = subnets[-1]
    clear_before = tracker.is_clear(last.subnet_id, last.layer_ids())
    for subnet in subnets[:-1]:
        tracker.release_layers(subnet.subnet_id, subnet.layer_ids())
        clear_now = tracker.is_clear(last.subnet_id, last.layer_ids())
        assert clear_now or not clear_before
        clear_before = clear_now
    assert tracker.is_clear(last.subnet_id, last.layer_ids())


# ----------------------------------------------------------------------
# readiness-index upkeep: the waiter map and the dirty-scope record
# ----------------------------------------------------------------------
def _assert_waiters_mirror_blocked_edges(tracker):
    """``_waiters`` (user -> layer -> entries) is exactly the inverse of
    every scope's ``blocked`` edge sets, with no empty container kept —
    so a user's keys are precisely the layers still awaited from it,
    which is all ``ReadinessOverlay.assume_released`` walks."""
    expected = {}
    for scope_key, scope in tracker._scopes.items():
        for waiting, edges in scope.blocked.items():
            for user, layer in edges:
                expected.setdefault(user, {}).setdefault(layer, set()).add(
                    (scope_key, waiting)
                )
    assert tracker._waiters == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_subnets=st.integers(3, 16),
    num_blocks=st.integers(2, 6),
    num_choices=st.integers(1, 4),
)
def test_index_upkeep_under_random_ops(seed, num_subnets, num_blocks, num_choices):
    """After every register (in sequence order) / index_add /
    release_layers / mark_finished / index_discard the waiter map mirrors
    the blocked edges, and ``dirty_scopes`` covers every scope whose
    ``ready_ids`` differ from what its owner saw when it last cleared the
    mark."""
    from random import Random

    rng = Random(seed)
    subnets = [
        Subnet(i, tuple(rng.randrange(num_choices) for _ in range(num_blocks)))
        for i in range(num_subnets)
    ]
    scopes = (0, 1)
    cut = max(1, num_blocks // 2)
    slices = {0: (0, cut), 1: (cut, num_blocks)}
    order = list(range(num_subnets - 1, -1, -1))  # popped from the end

    tracker = DependencyTracker()
    seen = {scope: [] for scope in scopes}
    registered, unfinished = [], set()

    def check():
        _assert_waiters_mirror_blocked_edges(tracker)
        for scope in scopes:
            if tracker.ready_ids(scope) != seen[scope]:
                assert scope in tracker.dirty_scopes

    for _ in range(num_subnets * 8):
        op = rng.randrange(6)
        if op == 0 and order:
            sid = order.pop()
            tracker.register(subnets[sid])
            registered.append(sid)
            unfinished.add(sid)
        elif op == 1 and unfinished:
            sid, scope = rng.choice(sorted(unfinished)), rng.choice(scopes)
            tracker.index_add(scope, sid, subnets[sid].layers_in_range(*slices[scope]))
        elif op == 2 and unfinished:
            sid, scope = rng.choice(sorted(unfinished)), rng.choice(scopes)
            tracker.release_layers(sid, subnets[sid].layers_in_range(*slices[scope]))
        elif op == 3 and unfinished:
            sid = rng.choice(sorted(unfinished))
            tracker.mark_finished(sid)
            unfinished.discard(sid)
        elif op == 4 and registered:
            tracker.index_discard(rng.choice(scopes), rng.choice(registered))
        elif op == 5:
            # the owner polls: it reads the ready list and clears the mark
            scope = rng.choice(scopes)
            tracker.dirty_scopes.discard(scope)
            seen[scope] = tracker.ready_ids(scope)
        check()

    # quiescence: everything registered, finished and popped
    for sid in reversed(order):
        tracker.register(subnets[sid])
        unfinished.add(sid)
    for sid in sorted(unfinished):
        tracker.mark_finished(sid)
        check()
    for scope in scopes:
        for sid in tracker.indexed_ids(scope):
            tracker.index_discard(scope, sid)
            check()
    assert tracker._waiters == {}
