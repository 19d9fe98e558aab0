"""The CSP scheduler — the paper's Algorithm 2.

Given a stage's queue list of candidate forward tasks, return the first
(lowest position, which is lowest sequence ID — the queue is kept sorted)
task whose causal dependencies are clear.  Backward-first priority is
applied by the runtime before this scheduler is consulted (Algorithm 1
lines 4-11), so the scheduler only ever ranks forward tasks.

Three dependency checks are provided:

``index`` (default)
    Pops the lowest ready id from :class:`~repro.core.dependency.
    DependencyTracker`'s incremental readiness index — O(1) amortized
    per call, with all bookkeeping charged to the release path.  Falls
    back to the scan path when no index scope was supplied or built
    (standalone use), counted in ``fallback_scans``.

``scan``
    Per-layer release semantics from the tracker, evaluated by scanning
    the queue against the per-layer user lists on every call — precisely
    Definition 2, kept as the reference implementation the index must be
    decision-identical to.

``conservative``
    Algorithm 2 verbatim: a queued subnet is blocked if any earlier,
    not-stage-finished subnet shares *any* layer with the candidate's
    stage-K slice.  Cheaper and what the paper's pseudocode states; it
    approximates WRITE completion by "backward ran at this stage".

All are deterministic; the runtime always validates the winner against
the exact tracker before execution, so every mode preserves CSP.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Set, Tuple

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

_MODES = ("index", "scan", "conservative")
_TIMING_MODES = ("sampled", "full")
#: ``timing="sampled"`` reads the wall clock on one call in this many.
_SAMPLE_EVERY = 64


class CspScheduler:
    """Stage-local scheduling policy with dependency preservation."""

    def __init__(
        self,
        mode: str = "scan",
        timing: str = "sampled",
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if timing not in _TIMING_MODES:
            raise ValueError(
                f"timing must be one of {_TIMING_MODES}, got {timing!r}"
            )
        self.mode = mode
        #: wall-time accounting policy.  ``"sampled"`` (default) times one
        #: call in ``_SAMPLE_EVERY`` — on the O(1) index fast path the
        #: two ``perf_counter`` syscalls otherwise dominate the decision
        #: they measure.  ``"full"`` times every call (benchmarks).
        self.timing = timing
        self._time_every = 1 if timing == "full" else _SAMPLE_EVERY
        self.calls = 0
        #: schedule() calls actually wall-timed (== calls under "full")
        self.timed_calls = 0
        #: queue entries examined by the scan paths
        self.scans = 0
        #: decisions served straight from the readiness index
        self.ready_pops = 0
        #: index-mode calls that had no scope and fell back to scanning
        self.fallback_scans = 0
        #: cumulative host-side wall time spent inside *timed* schedule()
        #: calls — the paper's §3.2 claim is that the per-call mean stays
        #: "<0.01s", negligible against second-scale subnet executions.
        self.total_time_s = 0.0

    @property
    def uses_index(self) -> bool:
        return self.mode == "index"

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

        ``queue`` is scanned in order (the runtime keeps it sorted by
        subnet ID, so "first clear" == "lowest clear ID" — the paper's
        priority rule).  ``skip`` excludes entries (used by the predictor
        to ask "and after this one, what next?").  ``scope`` names the
        tracker's readiness-index scope in ``index`` mode (the policy
        passes the stage id); the queue must mirror the indexed set.
        """
        self.calls += 1
        every = self._time_every
        if every == 1 or self.calls % every == 1:
            started = time.perf_counter()
            try:
                return self._decide(
                    queue, stage_layers_of, tracker, stage_finished,
                    subnet_of, skip, scope,
                )
            finally:
                self.timed_calls += 1
                self.total_time_s += time.perf_counter() - started
        return self._decide(
            queue, stage_layers_of, tracker, stage_finished, subnet_of,
            skip, scope,
        )

    def _decide(
        self,
        queue: Sequence[int],
        stage_layers_of: Callable[[int], Sequence[LayerId]],
        tracker: DependencyTracker,
        stage_finished: Optional[Set[int]],
        subnet_of: Optional[Callable[[int], Subnet]],
        skip: Optional[Set[int]],
        scope: Optional[Hashable],
    ) -> ScheduleDecision:
        if self.mode == "index":
            if scope is not None and tracker.has_scope(scope):
                return self._pop_ready(queue, tracker, scope, skip)
            self.fallback_scans += 1
        for qidx, qval in enumerate(queue):
            if skip and qval in skip:
                continue
            self.scans += 1
            if self.mode == "conservative":
                clear = self._conservative_clear(
                    qval, stage_layers_of(qval), tracker,
                    stage_finished or set(), subnet_of,
                )
            else:
                clear = tracker.is_clear(qval, stage_layers_of(qval))
            if clear:
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

    @property
    def mean_call_time_s(self) -> float:
        """Average wall time per *timed* schedule() call (0.0 before any
        call).  Under ``timing="sampled"`` this is an unbiased estimate
        over one call in ``_SAMPLE_EVERY``; under ``"full"`` it is the
        exact mean the benchmarks report."""
        if self.timed_calls == 0:
            return 0.0
        return self.total_time_s / self.timed_calls

    def stats(self) -> dict:
        """Counters snapshot for profiling/benchmark reporting."""
        return {
            "mode": self.mode,
            "calls": self.calls,
            "scans": self.scans,
            "ready_pops": self.ready_pops,
            "fallback_scans": self.fallback_scans,
            "timing": self.timing,
            "timed_calls": self.timed_calls,
            "mean_call_us": self.mean_call_time_s * 1e6,
        }

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
