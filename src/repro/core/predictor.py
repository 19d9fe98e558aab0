"""Context prediction — the paper's Algorithm 3.

The predictor forecasts the next tasks each stage will schedule so that
the context manager can prefetch their layer parameters from pinned CPU
memory before execution needs them.  It exploits the paper's key
opportunity: DNN compute times are roughly deterministic, so re-running
the scheduler against *hypothetical* near-future state is an accurate
simulation of the real scheduler's next decisions.

Two call sites, mirroring Algorithm 1:

* before a **backward** runs (``predict_on_backward``): pretend the
  backward's WRITEs have committed, re-run SCHEDULE(); the produced
  forward task is very likely next — prefetch it.  Also absorb the
  pending-backward hints carried with the received gradient.
* before a **forward** runs (``predict_on_forward``): if this forward
  unblocks a pending backward recorded earlier, prefetch that backward's
  context; then re-run SCHEDULE() skipping the task being launched to
  prefetch the following forward.

``depth`` controls how many future forwards are prefetched per call (the
paper uses 2).

The hypothetical re-run is a copy-on-write
:class:`~repro.core.dependency.ReadinessOverlay` over the stage's
readiness-index scope — O(affected edges) per assumed subnet.  The
brute-force walk of the per-layer user lists it must agree with lives in
``tests/test_core_predictor.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.core.dependency import DependencyTracker
from repro.core.task import Task, TaskKind

__all__ = ["Prediction", "ContextPredictor"]


@dataclass(frozen=True)
class Prediction:
    """One forecast task whose context should be prefetched."""

    task: Task
    reason: str  # "after-backward" | "after-forward" | "pending-backward"


class ContextPredictor:
    """Per-stage forecast engine (one instance per pipeline stage).

    ``stage`` is also the tracker's readiness-index scope the CSP policy
    mirrors this stage's forward queue into.
    """

    def __init__(self, stage: int, depth: int = 2) -> None:
        self.stage = stage
        self.depth = depth
        #: backward tasks reported blocked by later stages (L_blocked),
        #: in arrival order; a dict so membership and removal are O(1)
        self._blocked: Dict[int, None] = {}
        self.predictions_made = 0

    # ------------------------------------------------------------------
    def _chain_forwards(
        self,
        tracker: DependencyTracker,
        assume_released: Iterable[int],
        skip: Iterable[int],
    ) -> List[int]:
        """Re-run SCHEDULE() up to ``depth`` times against hypothetical
        state: subnets in ``assume_released`` are treated as finished."""
        overlay = tracker.overlay(self.stage)
        for subnet_id in assume_released:
            overlay.assume_released(subnet_id)
        picks: List[int] = []
        local_skip = set(skip)
        for _ in range(self.depth):
            chosen = overlay.first_clear(skip=local_skip)
            if chosen is None:
                break
            picks.append(chosen)
            local_skip.add(chosen)
            # Assume the pick runs to completion before the next forecast
            # step — optimistic, but that is exactly the paper's heuristic.
            overlay.assume_released(chosen)
        return picks

    # ------------------------------------------------------------------
    def predict_on_backward(
        self,
        backward_subnet: int,
        tracker: DependencyTracker,
        pending_backward_hints: Sequence[int] = (),
    ) -> List[Prediction]:
        """Algorithm 3, ``recv is not None`` branch.

        ``backward_subnet``'s own hint is dropped here — its backward is
        running, so it is no longer pending — which bounds L_blocked by
        the in-flight window instead of the stream length.
        """
        self.predictions_made += 1
        for hint in pending_backward_hints:
            self._blocked[hint] = None
        self._blocked.pop(backward_subnet, None)
        picks = self._chain_forwards(
            tracker, assume_released=(backward_subnet,), skip=()
        )
        return [
            Prediction(Task(pick, self.stage, TaskKind.FORWARD), "after-backward")
            for pick in picks
        ]

    def predict_on_forward(
        self,
        forward_subnet: int,
        tracker: DependencyTracker,
    ) -> List[Prediction]:
        """Algorithm 3, forward branch (lines 13-19).

        The ``pending-backward`` branch is unreachable in the
        single-engine wiring: the CSP policy's hints are the subnets
        whose forward already ran at this stage, so none of them can be
        the forward being launched.  It serves callers that carry hints
        from a later stage, as the paper's gradient messages do.
        """
        self.predictions_made += 1
        predictions: List[Prediction] = []
        # Does launching this forward release a pending backward?  In the
        # pipeline, a blocked backward at a later stage waits for some
        # forward to arrive there; its precedence is the forward subnet.
        if forward_subnet in self._blocked:
            del self._blocked[forward_subnet]
            predictions.append(
                Prediction(
                    Task(forward_subnet, self.stage, TaskKind.BACKWARD),
                    "pending-backward",
                )
            )
        picks = self._chain_forwards(
            tracker, assume_released=(), skip=(forward_subnet,)
        )
        predictions.extend(
            Prediction(Task(pick, self.stage, TaskKind.FORWARD), "after-forward")
            for pick in picks
        )
        return predictions
