"""The discrete-event simulation loop.

A thin, generic driver: pop events in (time, priority, sequence) order and
fire their callbacks until the queue drains or a step/time budget trips.
All domain logic lives in the callbacks the pipeline engine installs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError
from repro.sim.clock import EventQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.trace import ExecutionTrace

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """Owns the event queue and runs it to quiescence.

    When ``trace`` is given, the engine emits one ``sim_quiescent``
    observability event each time the queue drains, carrying the
    cumulative event count — the run-global "the schedule is complete"
    marker the trace exporter pins at the end of the timeline.
    """

    def __init__(
        self,
        max_events: int = 10_000_000,
        trace: Optional["ExecutionTrace"] = None,
    ) -> None:
        self.queue = EventQueue()
        self.max_events = max_events
        self.events_processed = 0
        self.trace = trace

    @property
    def now(self) -> float:
        return self.queue.now

    def clock(self) -> float:
        """``now`` as a callable.  A clock consumer (the cluster
        manager's usage ledger) holds this bound method, which refers
        to the simulator alone and not to the plane that owns both."""
        return self.queue.now

    def schedule(self, time: float, callback, priority: int = 0, label: str = ""):
        return self.queue.schedule(time, callback, priority, label)

    def schedule_after(self, delay: float, callback, priority: int = 0, label: str = ""):
        return self.queue.schedule_after(delay, callback, priority, label)

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or ``until`` is reached).

        Returns the final virtual time.  The loop is a single fused
        ``pop_until`` per event — no separate peek — and the event budget
        is checked *before* firing, so the raised error names the first
        over-budget event and the trace never contains its effects.
        """
        if until is not None and until != until:
            raise ValueError("cannot run until nan: the cut would never trip")
        queue = self.queue
        pop_until = queue.pop_until
        max_events = self.max_events
        while True:
            event = pop_until(until)
            if event is None:
                if len(queue) == 0:
                    if self.trace is not None:
                        self.trace.record_event(
                            "sim_quiescent",
                            self.now,
                            events_processed=self.events_processed,
                        )
                return self.now
            if self.events_processed >= max_events:
                raise SimulationError(
                    f"event budget exhausted ({max_events}); likely a "
                    f"scheduling livelock (first over-budget event "
                    f"{event.label!r})"
                )
            event.callback()
            self.events_processed += 1
