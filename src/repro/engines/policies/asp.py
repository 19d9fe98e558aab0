"""ASP policy (PipeDream) and the SSP extension.

ASP keeps the pipeline full (window = pipeline depth, 1F1B steady state)
and commits every update the moment its backward completes, with no
inter-subnet ordering at all — maximum utilisation, zero reproducibility
guarantees: whichever interleaving the cluster's timing produces is the
result.

SSP (stale synchronous parallel) is the classic middle ground the paper
cites as "not designed to tackle causal dependencies": a subnet may only
start its forward if it is within ``staleness`` completed subnets of the
oldest unfinished one.  It bounds staleness, not causal order, so it is
*also* non-reproducible across cluster sizes — included as an extension
baseline to show CSP is not merely "less staleness".
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.config import SystemConfig
from repro.engines.policies.base import SyncPolicy

__all__ = ["AspPolicy", "SspPolicy"]


class AspPolicy(SyncPolicy):
    commits_immediately = True

    def select_forward(self, stage: int) -> Optional[int]:
        assert self.engine is not None
        queue = self.engine.stage_states[stage].queue
        return queue[0] if queue else None

    def wakes(self) -> Iterable[int]:
        # FIFO runs whatever is queued, so an idle stage has empty queues
        # and only an arrival (which polls that stage) can change that.
        return ()


class SspPolicy(SyncPolicy):
    commits_immediately = True

    def __init__(self, config: SystemConfig, stages: int) -> None:
        super().__init__(config, stages)
        self.staleness = max(0, config.staleness)
        #: last (stage, candidate) pair reported held, so the staleness
        #: gate emits one observability event per distinct hold, not one
        #: per scheduler poll
        self._last_hold: dict = {}

    def select_forward(self, stage: int) -> Optional[int]:
        assert self.engine is not None
        queue = self.engine.stage_states[stage].queue
        if not queue:
            return None
        oldest_unfinished = self.engine.oldest_unfinished_subnet()
        candidate = queue[0]
        if candidate - oldest_unfinished > self.staleness:
            if self._last_hold.get(stage) != candidate:
                self._last_hold[stage] = candidate
                self.engine.trace.record_event(
                    "staleness_hold",
                    self.engine.sim.now,
                    stage=stage,
                    subnet_id=candidate,
                    oldest_unfinished=oldest_unfinished,
                    staleness=self.staleness,
                )
            return None
        self._last_hold.pop(stage, None)
        return candidate
