"""Per-stage runtime state — the lists of the paper's Algorithm 1.

Each pipeline stage (one GPU worker) owns:

* ``queue`` (L_q) — subnet IDs whose forward input has arrived but whose
  forward has not been scheduled, kept sorted by sequence ID so the
  scheduler's in-order scan realises lowest-ID-first priority;
* ``backward_ready`` — subnet IDs whose backward input (gradient from the
  next stage, or loss at the last stage) has arrived;
* ``busy_subnets`` — subnet IDs whose forward ran here and whose
  backward has not.

Algorithm 1's L_f and L_SN are not kept per stage: a finished subnet
leaves the dependency tracker (:meth:`~repro.core.dependency.
DependencyTracker.mark_finished`), and descriptors live once, in the
engine's run table.

The state object is pure bookkeeping; decisions are made by the scheduler
and the engine, which keeps this faithful to the paper's decentralised
design (every stage could run this privately).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Set

from repro.errors import SchedulingError
from repro.sim.trace import ExecutionTrace

__all__ = ["CspStageState"]


@lru_cache(maxsize=None, typed=True)
def _depth_attrs(fwd: int, bwd: int) -> tuple:
    """``queue_depth`` attrs: one shared tuple per distinct depth pair."""
    return (("fwd", fwd), ("bwd", bwd))


@dataclass
class CspStageState:
    stage: int
    queue: List[int] = field(default_factory=list)
    backward_ready: List[int] = field(default_factory=list)
    #: subnets whose forward ran here and whose backward has not yet
    busy_subnets: Set[int] = field(default_factory=set)
    #: queue observers — the CSP policy's readiness index mirrors the
    #: forward queue through these callbacks (None = nobody listening)
    on_enqueue: Optional[Callable[[int], None]] = field(
        default=None, repr=False, compare=False
    )
    on_pop: Optional[Callable[[int], None]] = field(
        default=None, repr=False, compare=False
    )
    #: observability sink + virtual clock — when both are set, every
    #: queue mutation emits a ``queue_depth`` counter sample so the
    #: exporter can draw per-stage L_q / backward-ready depth tracks
    trace: Optional[ExecutionTrace] = field(
        default=None, repr=False, compare=False
    )
    clock: Optional[Callable[[], float]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def _sample_depth(self) -> None:
        if self.trace is not None and self.clock is not None:
            self.trace.append_event(
                "queue_depth",
                self.clock(),
                self.stage,
                -1,
                _depth_attrs(len(self.queue), len(self.backward_ready)),
            )

    # ------------------------------------------------------------------
    def attach_queue_observer(
        self,
        on_enqueue: Callable[[int], None],
        on_pop: Callable[[int], None],
    ) -> None:
        """Subscribe to forward-queue membership changes.

        The observer sees every id *after* it entered the queue and
        *after* it left, so an index maintained from these callbacks is
        always an exact mirror of ``queue``.
        """
        self.on_enqueue = on_enqueue
        self.on_pop = on_pop

    def enqueue_forward(self, subnet_id: int) -> None:
        """A forward input arrived at this stage (receiveFwd)."""
        if subnet_id in self.queue:
            raise SchedulingError(
                f"stage {self.stage}: duplicate forward arrival for {subnet_id}"
            )
        insort(self.queue, subnet_id)
        self._sample_depth()
        if self.on_enqueue is not None:
            self.on_enqueue(subnet_id)

    def pop_forward(self, subnet_id: int) -> None:
        """L_q.pop(qidx) after the scheduler picked ``subnet_id``."""
        try:
            self.queue.remove(subnet_id)
        except ValueError:
            raise SchedulingError(
                f"stage {self.stage}: scheduled {subnet_id} not in queue"
            ) from None
        self.busy_subnets.add(subnet_id)
        self._sample_depth()
        if self.on_pop is not None:
            self.on_pop(subnet_id)

    def enqueue_backward(self, subnet_id: int) -> None:
        """A backward input arrived (receiveBwd / last-stage loss)."""
        if subnet_id in self.backward_ready:
            raise SchedulingError(
                f"stage {self.stage}: duplicate backward arrival for {subnet_id}"
            )
        insort(self.backward_ready, subnet_id)
        self._sample_depth()

    def pop_backward(self) -> Optional[int]:
        """Lowest-ID ready backward, or None (backward-first priority)."""
        if not self.backward_ready:
            return None
        subnet_id = self.backward_ready.pop(0)
        self._sample_depth()
        return subnet_id

    def finish_backward(self, subnet_id: int) -> None:
        """The backward of ``subnet_id`` ran here (flush)."""
        self.busy_subnets.discard(subnet_id)
