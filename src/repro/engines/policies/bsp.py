"""BSP policy: bulk-synchronous inter-subnet parallelism (GPipe, VPipe,
Retiarii's pattern).

A *bulk* of B subnets is admitted; all proceed through the pipeline with
no dependency checks; their parameter updates are buffered; when every
subnet in the bulk has drained, the engine flushes all buffered updates
(in subnet-ID order — deterministic *given the bulk composition*) and the
next bulk is admitted.

This is exactly why BSP is not reproducible across cluster sizes: the
bulk size tracks the pipeline depth, so subnets that share a layer land
in the same bulk on one cluster (both read the pre-bulk value) and in
different bulks on another (the later one reads the earlier one's
update).  Figure 1 and Table 4 of the paper illustrate the effect.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.config import SystemConfig
from repro.engines.policies.base import SyncPolicy

__all__ = ["BspPolicy"]


class BspPolicy(SyncPolicy):
    commits_immediately = False

    def __init__(self, config: SystemConfig, stages: int) -> None:
        super().__init__(config, stages)
        self.bulk_size = config.default_bulk(stages)
        self._bulk_members: List[int] = []
        self._completed_in_bulk: List[int] = []
        self.flushes = 0

    # ------------------------------------------------------------------
    def can_inject(self) -> bool:
        # Admission stops at the bulk boundary until the flush happens.
        return len(self._bulk_members) < self.bulk_size

    def on_injected(self, subnet_id: int) -> None:
        self._bulk_members.append(subnet_id)

    def select_forward(self, stage: int) -> Optional[int]:
        assert self.engine is not None
        queue = self.engine.stage_states[stage].queue
        return queue[0] if queue else None

    def wakes(self) -> Iterable[int]:
        # FIFO runs whatever is queued, so an idle stage has empty queues
        # and only an arrival (which polls that stage) can change that.
        return ()

    # ------------------------------------------------------------------
    def on_subnet_complete(self, subnet_id: int) -> List[int]:
        self._completed_in_bulk.append(subnet_id)
        if len(self._completed_in_bulk) < len(self._bulk_members):
            return []
        # Barrier reached: flush the whole bulk in sequence-ID order and
        # open the next bulk.
        flush_order = sorted(self._completed_in_bulk)
        self._bulk_members.clear()
        self._completed_in_bulk.clear()
        self.flushes += 1
        self.engine.trace.record_event(
            "bulk_flush",
            self.engine.sim.now,
            bulk=len(flush_order),
            flush_index=self.flushes,
        )
        return flush_order

    def finalize(self) -> List[int]:
        remaining = sorted(self._completed_in_bulk)
        self._completed_in_bulk.clear()
        self._bulk_members.clear()
        return remaining
