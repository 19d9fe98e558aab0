"""Event queue: total pop order against a sorted-list oracle, and O(1)
accounting (len / cancel / clear / compaction).

The queue's total order ``(time, priority, sequence)`` is unique, so a
correct store must pop exactly what a sorted list of those keys pops —
the property the fuzz below checks on a random operation stream.
"""

import math
from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import EventQueue


def _drain(queue):
    order = []
    while True:
        event = queue.pop()
        if event is None:
            return order
        order.append((event.time, event.priority, event.label))


# ----------------------------------------------------------------------
# O(1) accounting
# ----------------------------------------------------------------------
def test_len_tracks_live_events_through_cancel_and_pop():
    queue = EventQueue()
    events = [queue.schedule(float(i), lambda: None) for i in range(10)]
    assert len(queue) == 10
    events[3].cancel()
    events[7].cancel()
    assert len(queue) == 8
    events[3].cancel()  # idempotent: no double decrement
    assert len(queue) == 8
    assert queue.pop().time == 0.0
    assert len(queue) == 7
    assert len(_drain(queue)) == 7
    assert len(queue) == 0


def test_cancel_after_pop_does_not_corrupt_counters():
    queue = EventQueue()
    event = queue.schedule(1.0, lambda: None)
    queue.schedule(2.0, lambda: None)
    assert queue.pop() is event
    event.cancel()  # already fired: detached, must not decrement live
    assert len(queue) == 1


def test_clear_returns_live_count_and_detaches_handles():
    queue = EventQueue()
    events = [queue.schedule(float(i), lambda: None) for i in range(6)]
    events[0].cancel()
    assert queue.clear() == 5
    assert len(queue) == 0
    # epoch guard: cancelling a pre-clear handle afterwards is a no-op
    queue.schedule(10.0, lambda: None)
    events[1].cancel()
    assert len(queue) == 1
    assert queue.physical_size() == 1


def test_mass_cancellation_compacts_physical_store():
    queue = EventQueue()
    events = [queue.schedule(float(i), lambda: None) for i in range(200)]
    assert queue.physical_size() == 200
    for event in events[:150]:
        event.cancel()
    # compaction fires once cancelled entries outnumber live ones, so
    # the physical store must have shed at least the pre-trigger stale
    # run without a single pop (it re-arms only past the 64-entry floor)
    assert len(queue) == 50
    assert queue.physical_size() <= 100
    assert len(_drain(queue)) == 50


def test_queue_takes_no_arguments():
    with pytest.raises(TypeError):
        EventQueue("heap")


# ----------------------------------------------------------------------
# rejected times
# ----------------------------------------------------------------------
@pytest.mark.parametrize("time", [math.nan, -math.inf, -1.0])
def test_schedule_rejects_times_not_at_or_after_now(time):
    """NaN compares False against everything: accepted, it would sit in
    the heap unordered and leave ``now == nan`` once popped."""
    queue = EventQueue()
    queue.schedule(1.0, lambda: None)
    with pytest.raises(ValueError):
        queue.schedule(time, lambda: None)
    with pytest.raises(ValueError):
        queue.schedule_after(time, lambda: None)
    assert len(queue) == 1 and queue.physical_size() == 1


def test_positive_infinity_is_ordered_last():
    queue = EventQueue()
    queue.schedule(math.inf, lambda: None)
    queue.schedule(1.0, lambda: None)
    queue.schedule(0.5, lambda: None)
    assert [event.time for event in iter(queue.pop, None)] == [0.5, 1.0, math.inf]


# ----------------------------------------------------------------------
# pop_until semantics
# ----------------------------------------------------------------------
def test_pop_until_cuts_then_resumes():
    queue = EventQueue()
    for time in (1.0, 1.0, 2.0):
        queue.schedule(time, lambda: None)
    assert queue.pop_until(1.5).time == 1.0
    assert queue.pop_until(1.5).time == 1.0
    assert queue.pop_until(1.5) is None  # next event beyond the cut
    assert queue.now == 1.0  # the cut does not advance the clock
    assert queue.pop_until(None).time == 2.0
    assert queue.pop_until(None) is None


def test_same_time_insert_during_drain_pops_in_order():
    """A callback scheduling a higher-priority event at the *current*
    time must preempt the rest of the same-time run."""
    queue = EventQueue()
    order = []
    queue.schedule(5.0, lambda: order.append("a"), priority=0)
    queue.schedule(5.0, lambda: order.append("c"), priority=0)
    queue.pop().callback()  # fires a; c is still pending at t=5
    queue.schedule(5.0, lambda: order.append("b"), priority=-1)
    while (event := queue.pop()) is not None:
        event.callback()
    assert order == ["a", "b", "c"]


def test_cancelled_head_is_skipped():
    queue = EventQueue()
    first = queue.schedule(1.0, lambda: None, priority=0)
    second = queue.schedule(1.0, lambda: None, priority=1)
    assert queue.peek_time() == 1.0
    first.cancel()
    assert queue.pop() is second
    assert len(queue) == 0


def test_far_future_outlier_still_pops_in_order():
    queue = EventQueue()
    times = [float(i) for i in range(40)] + [1e9]
    for time in times:
        queue.schedule(time, lambda: None)
    popped = [event.time for event in iter(queue.pop, None)]
    assert popped == sorted(times)


# ----------------------------------------------------------------------
# differential fuzz: the queue against a sorted-list oracle
# ----------------------------------------------------------------------
class _Oracle:
    """The reference: live events as a sorted list of
    ``[(time, priority, sequence), label]`` entries."""

    def __init__(self):
        self.now, self.sequence, self.entries = 0.0, 0, []

    def schedule(self, time, priority, label):
        entry = [(time, priority, self.sequence), label]
        self.sequence += 1
        insort(self.entries, entry)
        return entry

    def cancel(self, entry):
        if entry in self.entries:
            self.entries.remove(entry)

    def pop_until(self, until):
        if not self.entries or (until is not None and self.entries[0][0][0] > until):
            return None
        (self.now, priority, _), label = self.entries.pop(0)
        return (self.now, priority, label)

    def peek_time(self):
        return self.entries[0][0][0] if self.entries else None

    def clear(self):
        dropped, self.entries = len(self.entries), []
        return dropped


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.floats(0.0, 100.0, allow_nan=False),
            st.integers(-2, 2),
        ),
        st.tuples(st.just("schedule"), st.floats(1e6, 1e9), st.just(0)),
        st.tuples(st.just("pop"), st.none(), st.none()),
        st.tuples(st.just("pop_until"), st.floats(0.0, 100.0), st.none()),
        st.tuples(st.just("cancel"), st.integers(0, 40), st.none()),
        st.tuples(st.just("clear"), st.none(), st.none()),
        st.tuples(st.just("peek"), st.none(), st.none()),
    ),
    min_size=5,
    max_size=80,
)


def _popped(event):
    return None if event is None else (event.time, event.priority, event.label)


@settings(max_examples=250, deadline=None)
@given(ops=_OPS)
def test_queue_matches_sorted_list_oracle(ops):
    queue, oracle = EventQueue(), _Oracle()
    handles = []  # (queue handle, oracle entry); kept across clear()
    for op, arg, extra in ops:
        if op == "schedule":
            time, label = queue.now + arg, f"e{len(handles)}"
            handles.append((
                queue.schedule(time, lambda: None, priority=extra, label=label),
                oracle.schedule(time, extra, label),
            ))
        elif op == "pop":
            assert _popped(queue.pop()) == oracle.pop_until(None)
        elif op == "pop_until":
            until = queue.now + arg
            assert _popped(queue.pop_until(until)) == oracle.pop_until(until)
        elif op == "cancel" and handles:
            handle, entry = handles[arg % len(handles)]
            handle.cancel()
            oracle.cancel(entry)
        elif op == "clear":
            assert queue.clear() == oracle.clear()
        elif op == "peek":
            assert queue.peek_time() == oracle.peek_time()
        assert (len(queue), queue.now) == (len(oracle.entries), oracle.now)
    assert _drain(queue) == [
        (key[0], key[1], label) for key, label in oracle.entries
    ]
