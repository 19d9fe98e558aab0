"""Event queue with a virtual clock and deterministic ordering.

Events at equal times pop in scheduling order (a monotonically increasing
sequence number breaks ties), so two runs of the same scenario interleave
identically — a precondition for the reproducibility experiments, where
the *simulation itself* must be deterministic before CSP vs BSP/ASP
differences mean anything.

The store is one binary heap of ``(time, priority, sequence, handle)``
tuples.  The first three are the order and are unique, so any correct
priority queue would pop the same events; the heap is the one kept
because no benchmarked workload resolves a difference, and the key sits
in the entry rather than on the handle so that ordering is a C tuple
comparison (docs/ARCHITECTURE.md, "Event-loop internals").

Accounting is O(1) throughout: a live-event counter is maintained on
``schedule``/``cancel``/``pop``, so ``len()`` and ``clear()`` never walk
the heap, and the heap is compacted when cancelled events outnumber
live ones (fault injectors cancel whole timetables at once).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple, Union

__all__ = ["ScheduledEvent", "EventQueue"]

_Entry = Tuple[float, int, int, "ScheduledEvent"]
#: an event label: text, or ``(format, *args)`` formatted when read
Label = Union[str, Tuple[object, ...]]

#: never compact below this many cancelled entries (tiny stores are fine).
_COMPACT_MIN = 64


class ScheduledEvent:
    """Handle to one pending event.  Unordered: the heap compares the
    ``(time, priority, sequence)`` key stored beside it, never the handle.

    ``label`` is a string, or a ``(format, *args)`` tuple formatted with
    ``%`` only when :attr:`label` is read (an over-budget error, a
    ``repr``): hot schedulers pass the tuple and no run that succeeds
    ever formats it.
    """

    __slots__ = (
        "time", "priority", "sequence", "callback", "_label", "cancelled",
        "_queue", "_epoch",
    )

    def __init__(self, time, priority, sequence, callback, label, queue) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self._label = label
        self.cancelled = False
        #: owning queue while the event is stored (detached on pop) —
        #: lets ``cancel()`` decrement the live counter in O(1).
        self._queue = queue
        #: queue epoch at schedule time; a ``clear()`` bumps the epoch so
        #: stale handles cancelled afterwards don't corrupt the counters.
        self._epoch = queue._epoch

    @property
    def label(self) -> str:
        label = self._label
        return label if isinstance(label, str) else label[0] % label[1:]

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return (
            f"<ScheduledEvent {self.label!r} at {self.time!r} "
            f"p{self.priority} #{self.sequence} {state}>"
        )

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._note_cancel(self)


class EventQueue:
    """A priority queue of :class:`ScheduledEvent` with a read-only clock."""

    def __init__(self) -> None:
        #: (time, priority, sequence, handle): ``sequence`` is unique, so
        #: tuple comparison — in C — never reaches the handle
        self._heap: List[_Entry] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._live = 0  # scheduled, not yet popped, not cancelled
        self._stale = 0  # cancelled but still physically stored
        self._epoch = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: Label = "",
    ) -> ScheduledEvent:
        """Enqueue ``callback`` to fire at virtual ``time``.

        ``priority`` orders same-time events (lower first) before the
        scheduling-order tiebreak; the pipeline engine uses it to commit
        task completions before starting new work at the same instant.
        """
        # ``not >=`` rather than ``<``: NaN compares False both ways and
        # would otherwise enter the heap and break its order.
        if not time >= self._now:
            raise ValueError(
                f"cannot schedule at {time}: must be >= now ({self._now})"
            )
        sequence = next(self._sequence)
        event = ScheduledEvent(time, priority, sequence, callback, label, self)
        self._live += 1
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: Label = "",
    ) -> ScheduledEvent:
        return self.schedule(self._now + delay, callback, priority, label)

    def pop(self) -> Optional[ScheduledEvent]:
        """Advance the clock to, and return, the next live event."""
        return self.pop_until(None)

    def pop_until(self, until: Optional[float] = None) -> Optional[ScheduledEvent]:
        """Fused peek+pop: the next live event, or ``None`` when the
        queue is drained *or* the next event lies beyond ``until`` (the
        clock does not advance past a cut)."""
        heap = self._live_head()
        if not heap or (until is not None and heap[0][0] > until):
            return None
        event = heapq.heappop(heap)[3]
        self._now = event.time
        self._live -= 1
        event._queue = None
        return event

    def _live_head(self) -> List[_Entry]:
        """Drop cancelled entries off the top; return the heap."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._stale -= 1
        return heap

    def __len__(self) -> int:
        return self._live

    def clear(self) -> int:
        """Drop every pending event (a fail-stop crash: in-flight work
        vanishes, the clock stays where it is).  Returns the number of
        live events discarded.  O(1): outstanding handles are invalidated
        by bumping the queue epoch rather than by detaching each event."""
        dropped = self._live
        self._epoch += 1
        self._heap = []
        self._live = 0
        self._stale = 0
        return dropped

    def _note_cancel(self, event: ScheduledEvent) -> None:
        if event._epoch != self._epoch:
            return  # handle outlived a clear(); nothing is stored
        self._live -= 1
        self._stale += 1
        if self._stale >= _COMPACT_MIN and self._stale > self._live:
            # Cancelled entries outnumber live ones (e.g. a fault injector
            # cancelling a whole pre-scheduled timetable): drop them.
            self._heap = [entry for entry in self._heap if not entry[3].cancelled]
            heapq.heapify(self._heap)
            self._stale = 0
