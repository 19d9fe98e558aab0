"""The CSP scheduler — the paper's Algorithm 2.

Given a stage's queue list of candidate forward tasks, return the first
(lowest position, which is lowest sequence ID — the queue is kept sorted)
task whose causal dependencies are clear.  Backward-first priority is
applied by the runtime before this scheduler is consulted (Algorithm 1
lines 4-11), so the scheduler only ever ranks forward tasks.

Two dependency checks are provided:

``index`` (default)
    Pops the lowest ready id from :class:`~repro.core.dependency.
    DependencyTracker`'s incremental readiness index — O(1) amortized
    per call, with all bookkeeping charged to the release path.  The
    caller names the index scope that mirrors ``queue``; the per-layer
    queue walk the index must be decision-identical to (Definition 2)
    is the oracle in ``tests/scheduler_reference.py``.

``conservative``
    Algorithm 2 verbatim: a queued subnet is blocked if any earlier,
    not-stage-finished subnet shares *any* layer with the candidate's
    stage-K slice.  What the paper's pseudocode states; it approximates
    WRITE completion by "backward ran at this stage".

Both are deterministic; the runtime always validates the winner against
the exact tracker before execution, so every mode preserves CSP.  The
scheduler holds no clock: its host cost is measured from outside (the
ledger's ``core.sched_busy_s``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence, Set

from repro.config import SCHEDULER_MODES
from repro.core.dependency import DependencyTracker
from repro.errors import SchedulingError
from repro.nn.parameter_store import LayerId
from repro.supernet.subnet import Subnet

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

    def __init__(self, mode: str = "index") -> None:
        if mode not in SCHEDULER_MODES:
            raise ValueError(f"mode must be one of {SCHEDULER_MODES}, got {mode!r}")
        self.mode = mode
        self.calls = 0
        #: queue entries examined by the conservative scan
        self.scans = 0
        #: decisions served straight from the readiness index
        self.ready_pops = 0

    # ------------------------------------------------------------------
    def schedule(
        self,
        queue: Sequence[int],
        stage_layers_of: Callable[[int], Sequence[LayerId]],
        tracker: DependencyTracker,
        stage_finished: Optional[Set[int]] = None,
        subnet_of: Optional[Callable[[int], Subnet]] = None,
        skip: Optional[Set[int]] = None,
        scope: Optional[Hashable] = None,
    ) -> ScheduleDecision:
        """Pick the first CSP-clear forward task in ``queue``.

        The runtime keeps ``queue`` sorted by subnet ID, so "first
        clear" == "lowest clear ID" — the paper's priority rule.
        ``skip`` excludes entries (the policy's safety validation asks
        "and apart from these, what next?").  ``scope`` names the
        tracker's readiness-index scope, required in ``index`` mode (the
        policy passes the stage id); the queue must mirror the indexed
        set.  A scope nothing was indexed under yet answers NONE.
        """
        self.calls += 1
        if self.mode == "index":
            if scope is None:
                raise SchedulingError(
                    "index mode needs the readiness-index scope that "
                    "mirrors the queue (scope=...)"
                )
            return self._pop_ready(queue, tracker, scope, skip)
        finished = stage_finished or set()
        for qidx, qval in enumerate(queue):
            if skip and qval in skip:
                continue
            self.scans += 1
            if self._conservative_clear(
                qval, stage_layers_of(qval), tracker, finished, subnet_of
            ):
                return ScheduleDecision(qidx, qval)
        return _NO_TASK

    def _pop_ready(
        self,
        queue: Sequence[int],
        tracker: DependencyTracker,
        scope: Hashable,
        skip: Optional[Set[int]],
    ) -> ScheduleDecision:
        """O(1)-amortized decision off the incremental readiness index."""
        qval = tracker.first_ready(scope, skip=skip)
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

    # ------------------------------------------------------------------
    def _conservative_clear(
        self,
        qval: int,
        stage_layers: Sequence[LayerId],
        tracker: DependencyTracker,
        stage_finished: Set[int],
        subnet_of: Optional[Callable[[int], Subnet]],
    ) -> bool:
        """Algorithm 2 lines 4-10: compare against whole earlier subnets."""
        if subnet_of is None:
            raise ValueError("conservative mode requires subnet_of")
        layer_set = set(stage_layers)
        for wval in range(tracker.frontier, qval):
            if wval in stage_finished or not tracker.is_registered(wval):
                continue
            if tracker.is_finished(wval):
                continue
            earlier = subnet_of(wval)
            if any(
                earlier.choices[block] == choice for block, choice in layer_set
            ):
                return False
        return True
