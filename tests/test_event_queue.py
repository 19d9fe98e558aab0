"""Event queue: total pop order against a sorted-list oracle, and O(1)
accounting (len / cancel / clear / compaction).

The queue's total order ``(time, priority, sequence)`` is unique, so a
correct store must pop exactly what a sorted list of those keys pops —
the property the fuzz below checks on a random operation stream.
"""

import math
import sys
from bisect import insort

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.clock import EventQueue, ScheduledEvent


def _physical_size(queue):
    """Stored entries, cancelled ones included."""
    return len(queue._heap)


def _peek_time(queue):
    """The next live event's time (drops cancelled entries off the top)."""
    heap = queue._live_head()
    return heap[0][0] if heap else None


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
    assert _physical_size(queue) == 1


def test_mass_cancellation_compacts_physical_store():
    queue = EventQueue()
    events = [queue.schedule(float(i), lambda: None) for i in range(200)]
    assert _physical_size(queue) == 200
    for event in events[:150]:
        event.cancel()
    # compaction fires once cancelled entries outnumber live ones, so
    # the physical store must have shed at least the pre-trigger stale
    # run without a single pop (it re-arms only past the 64-entry floor)
    assert len(queue) == 50
    assert _physical_size(queue) <= 100
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
    assert len(queue) == 1 and _physical_size(queue) == 1


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
    assert _peek_time(queue) == 1.0
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
        # one instant spelled as an ``int`` and as a ``float``: a tie on
        # time that priority, then sequence, must break
        st.tuples(st.just("schedule_int"), st.integers(0, 3), st.integers(-2, 2)),
        st.tuples(st.just("schedule_tie"), st.integers(0, 40), st.integers(-2, 2)),
        # a timetable armed at once and a run of it cancelled at once:
        # compaction rebuilds the heap from its surviving key tuples
        st.tuples(st.just("burst"), st.integers(64, 90), st.integers(-1, 1)),
        st.tuples(st.just("cancel_run"), st.integers(0, 200), st.integers(40, 120)),
    ),
    min_size=5,
    max_size=80,
)


def _popped(event):
    return None if event is None else (event.time, event.priority, event.label)


def _other_spelling(time):
    """The same instant as the other numeric type, where there is one."""
    if isinstance(time, int):
        return float(time)
    return int(time) if time.is_integer() else time


@settings(max_examples=250, deadline=None)
@given(ops=_OPS)
@example(ops=[  # compaction, then a clear(), then handles of both epochs cancelled
    ("burst", 90, 0), ("cancel_run", 10, 70), ("schedule_tie", 3, -1), ("pop", None, None),
    ("clear", None, None), ("burst", 70, 1), ("cancel_run", 0, 120), ("schedule_int", 0, 2),
])
def test_queue_matches_sorted_list_oracle(ops):
    queue, oracle = EventQueue(), _Oracle()
    handles = []  # (queue handle, oracle entry); kept across clear()

    def schedule(time, priority):
        label = f"e{len(handles)}"
        handles.append((
            queue.schedule(time, lambda: None, priority=priority, label=label),
            oracle.schedule(time, priority, label),
        ))

    for op, arg, extra in ops:
        if op == "schedule":
            schedule(queue.now + arg, extra)
        elif op == "schedule_int":
            schedule(math.ceil(queue.now) + arg, extra)
        elif op == "schedule_tie" and handles:
            time = handles[arg % len(handles)][0].time
            schedule(_other_spelling(time) if time >= queue.now else queue.now, extra)
        elif op == "burst":
            for index in range(arg):
                instant = math.ceil(queue.now) + 1 + index % 3
                schedule(instant if index % 2 else float(instant), extra * (index % 2))
        elif op == "cancel_run" and handles:
            for handle, entry in handles[arg % len(handles):][:extra]:
                handle.cancel()
                oracle.cancel(entry)
            stale = _physical_size(queue) - len(queue)
            assert stale < 64 or stale <= len(queue)  # else it compacted
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
            assert _peek_time(queue) == oracle.peek_time()
        assert (len(queue), queue.now) == (len(oracle.entries), oracle.now)
    assert _drain(queue) == [
        (key[0], key[1], label) for key, label in oracle.entries
    ]


# ----------------------------------------------------------------------
# ordering lives in the heap's key tuples, not on the handle
# ----------------------------------------------------------------------
class _Unorderable:
    """A payload that refuses every comparison."""

    def _refuse(self, other):
        raise TypeError("an event payload was compared")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
    __hash__ = object.__hash__

    def __call__(self):
        return None


def test_payloads_are_never_compared():
    queue = EventQueue()
    payloads = [_Unorderable() for _ in range(50)]
    for index, payload in enumerate(payloads):
        # ties on (time, priority) in both numeric spellings of the time
        queue.schedule(2 if index % 2 else 2.0, payload, priority=index % 2)
    popped = [event.callback for event in iter(queue.pop, None)]
    assert all(a is b for a, b in zip(popped, payloads[0::2] + payloads[1::2]))


def test_scheduled_event_is_an_unordered_slotted_handle():
    owned = vars(ScheduledEvent)
    for method in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__"):
        assert method not in owned  # identity equality, no order at all
    assert "cancel" in owned  # the ledger patches it on the class by name
    queue = EventQueue()
    event = queue.schedule(1, print, priority=3, label="x")
    assert not hasattr(event, "__dict__")
    assert (event.time, event.priority, event.sequence, event.callback, event.label) == (
        1, 3, 0, print, "x",
    )
    assert event.cancelled is False and event._queue is queue and event._epoch == 0
    with pytest.raises(TypeError):
        event < queue.schedule(1, print)
    assert "x" in repr(event)


def test_no_python_level_comparison_runs_while_ordering():
    """Effort guard: 461,322 ``ScheduledEvent.__lt__`` calls per
    ``serving_open`` iteration was the cost of ordering handles; the
    profiler must see no Python comparison frame at all."""
    compared = []

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_name in (
            "__lt__", "__le__", "__gt__", "__ge__", "__eq__",
        ):
            compared.append(frame.f_code.co_name)

    queue = EventQueue()
    sys.setprofile(profiler)
    try:
        handles = [
            queue.schedule(float((index * 7919) % 101), print, priority=index % 3)
            for index in range(600)
        ]
        for handle in handles[::2]:
            handle.cancel()  # enough to compact
        drained = len(_drain(queue))
    finally:
        sys.setprofile(None)
    assert drained == 300 and compared == []
