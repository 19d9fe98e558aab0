"""The CSP scheduler — the paper's Algorithm 2.

Given a stage's queue list of candidate forward tasks, return the first
(lowest position, which is lowest sequence ID — the queue is kept sorted)
task whose causal dependencies are clear.  Backward-first priority is
applied by the runtime before this scheduler is consulted (Algorithm 1
lines 4-11), so the scheduler only ever ranks forward tasks.

The dependency check is per-layer Definition 2, popped from
:class:`~repro.core.dependency.DependencyTracker`'s incremental readiness
index — O(1) amortized per call, with all bookkeeping charged to the
release path.  The caller names the index scope that mirrors ``queue``;
the per-layer queue walk the index must be decision-identical to is the
oracle in ``tests/scheduler_reference.py``.  The paper's pseudocode
(whole earlier subnets against the stage slice) is what
``naspipe scheduler-cost`` measures.

The scheduler holds no clock: its host cost is measured from outside
(the ledger's ``core.sched_busy_s``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.dependency import DependencyTracker
from repro.errors import SchedulingError

__all__ = ["ScheduleDecision", "CspScheduler"]


@dataclass(frozen=True)
class ScheduleDecision:
    """Result of one scheduler call: queue index and subnet ID.

    Mirrors Algorithm 2's ``(qidx, qval)`` output; ``NONE`` (qidx == -1)
    means no queued task is currently CSP-clear.
    """

    qidx: int
    qval: int

    @property
    def found(self) -> bool:
        return self.qidx >= 0


_NO_TASK = ScheduleDecision(-1, -1)


class CspScheduler:
    """Stage-local scheduling policy with dependency preservation."""

    def __init__(self) -> None:
        self.calls = 0
        #: decisions served straight from the readiness index
        self.ready_pops = 0

    def schedule(
        self,
        queue: Sequence[int],
        tracker: DependencyTracker,
        scope: Hashable,
    ) -> ScheduleDecision:
        """Pick the first CSP-clear forward task in ``queue``.

        The runtime keeps ``queue`` sorted by subnet ID, so "first
        clear" == "lowest clear ID" — the paper's priority rule.
        ``scope`` names the tracker's readiness-index scope that mirrors
        ``queue`` (the policy passes the stage id).  A scope nothing was
        indexed under yet answers NONE.
        """
        self.calls += 1
        qval = tracker.first_ready(scope)
        if qval is None:
            return _NO_TASK
        self.ready_pops += 1
        qidx = bisect_left(queue, qval)
        if qidx >= len(queue) or queue[qidx] != qval:
            raise SchedulingError(
                f"readiness index desynchronised from queue: {qval} is "
                f"ready under scope {scope!r} but not queued"
            )
        return ScheduleDecision(qidx, qval)
