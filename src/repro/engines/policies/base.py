"""The policy interface the pipeline engine drives.

A policy answers five questions the engine cannot answer generically:

1. may another subnet be injected right now? (``can_inject``)
2. which queued forward task should stage *k* run next?
   (``select_forward``)
3. do parameter updates commit at backward completion, or later?
   (``commits_immediately`` / ``flush_ready``)
4. what bookkeeping follows task completion? (the ``on_*`` hooks)
5. which *other* stages may a completion have given something to run?
   (``wakes``)

All policies are backward-first (the engine runs any ready backward
before consulting ``select_forward``) — PipeDream's 1F1B, GPipe's drain
phase and NASPipe's Algorithm 1 all share that priority.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List, Optional, TYPE_CHECKING

from repro.config import SystemConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engines.pipeline import PipelineEngine

__all__ = ["SyncPolicy"]


class SyncPolicy(ABC):
    """Base class wiring a policy to its engine."""

    #: updates commit at each backward completion (CSP/ASP); False means
    #: the engine buffers them until ``flush_ready`` returns subnet ids.
    commits_immediately: bool = True
    #: the CSP policy's dependency tracker and Algorithm-2 scheduler; the
    #: engine reads both for its stall dump and cost counters
    tracker = None
    scheduler = None

    def __init__(self, config: SystemConfig, stages: int) -> None:
        self.config = config
        self.stages = stages
        #: the admission window; ``SystemConfig`` is frozen, so it is
        #: resolved once
        self.window = config.default_window(stages)
        self.engine: Optional["PipelineEngine"] = None

    def bind(self, engine: "PipelineEngine") -> None:
        self.engine = engine

    # ------------------------------------------------------------------
    def effective_window(self) -> int:
        """The window after any engine-side degradation backpressure
        (``PipelineEngine.admission_cap``).  Policies that manage their
        own admission barrier (BSP's bulk flush) must not consult this —
        shrinking a bulk below its flush size would deadlock the
        barrier."""
        return self.engine.effective_window(self.window)

    def can_inject(self) -> bool:
        engine = self.engine
        if engine.admission_cap is None:
            return len(engine.inflight) < self.window
        return len(engine.inflight) < self.effective_window()

    def can_start_forward(self, stage: int, subnet_id: int) -> bool:
        """Gate on *starting* a subnet's first forward (stage 0).

        Default policies admit exactly ``window`` subnets, so starting is
        never separately constrained; CSP overrides this (admission is
        queue-capped, starting is window-capped).
        """
        return True

    def on_injected(self, subnet_id: int) -> None:
        """A subnet entered the pipeline."""

    @abstractmethod
    def select_forward(self, stage: int) -> Optional[int]:
        """Pick a queued forward task for ``stage`` (subnet id) or None."""

    def wakes(self) -> Iterable[int]:
        """Stages to re-poll after a task completed anywhere, ascending.

        The engine always re-polls the completing stage itself and every
        stage a task arrives at; this names the *other* stages whose
        ``select_forward`` answer the completion may have changed.  The
        default — every stage — is right for any gate that reads global
        state; a policy overrides it only when it knows better.
        """
        return range(self.stages)

    def before_task(self, stage: int, subnet_id: int, is_backward: bool) -> None:
        """Called as a task is about to start (predictor hook point)."""

    def on_forward_done(self, stage: int, subnet_id: int) -> None:
        pass

    def on_backward_done(self, stage: int, subnet_id: int) -> None:
        pass

    def on_subnet_complete(self, subnet_id: int) -> List[int]:
        """Returns subnet ids whose buffered updates must flush now, in
        commit order (empty for immediate-commit policies)."""
        return []

    def finalize(self) -> List[int]:
        """End-of-stream flush (BSP's possibly partial last bulk)."""
        return []
