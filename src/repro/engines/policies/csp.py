"""CSP policy: the NASPipe scheduler + predictor glued to the engine.

Forward selection runs Algorithm 2 over the stage's sorted queue; the
candidate the scheduler pops from the readiness index is validated
against the exact per-layer :class:`DependencyTracker` before execution —
the context executor's "check ... for safety" (paper §3.1) — and a
candidate that fails it is a :class:`~repro.errors.SchedulingError`.

When the predictor is enabled, the policy calls Algorithm 3 at the two
paper-specified points (before each backward and each forward) and turns
its predictions into context-manager prefetches.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional

from repro.config import SystemConfig
from repro.core.dependency import DependencyTracker
from repro.core.predictor import ContextPredictor
from repro.core.scheduler import CspScheduler
from repro.engines.policies.base import SyncPolicy
from repro.errors import SchedulingError

__all__ = ["CspPolicy"]


@lru_cache(maxsize=None, typed=True)
def _ready_set_attrs(size: int) -> tuple:
    """``ready_set`` attrs: one shared tuple per distinct size."""
    return (("size", size),)


class CspPolicy(SyncPolicy):
    commits_immediately = True

    def __init__(self, config: SystemConfig, stages: int) -> None:
        super().__init__(config, stages)
        self.tracker = DependencyTracker()
        self.scheduler = CspScheduler()
        self._predictors: List[ContextPredictor] = []
        #: per-stage open CSP wait (start time), for csp_wait_begin/end
        #: observability events — a wait opens when the stage has queued
        #: forwards but none is CSP-clear, and closes at the next
        #: successful selection
        self._wait_since: Dict[int, float] = {}
        #: last emitted ready-set size per stage (counter dedup)
        self._ready_size: Dict[int, int] = {}
        # Every stage starts woken: its first poll emits the initial
        # ``ready_set size=0`` sample whether or not anything is queued.
        self.tracker.dirty_scopes.update(range(stages))
        #: ``effective_window()`` as stage 0's last poll saw it
        self._window_seen: Optional[int] = None

    def bind(self, engine) -> None:
        super().bind(engine)
        # Recovered runs consume a stream slice that keeps its original
        # sequence IDs; the pre-crash ids below its base are taken.
        if engine.stream.base:
            self.tracker.reserve_ids_below(engine.stream.base)
        if self.config.predictor and self.config.context == "cached":
            self._predictors = [
                ContextPredictor(stage, depth=self.config.predictor_depth)
                for stage in range(self.stages)
            ]
        # Mirror each stage's forward queue into the tracker's readiness
        # index: enqueue indexes the (subnet, stage-slice) pair, pop
        # retires it.  All blocked-edge maintenance then rides the
        # release path inside the tracker.  The predictor's lookahead
        # reads the same index.
        for state in engine.stage_states:
            state.attach_queue_observer(
                self._index_enqueue_fn(state.stage),
                self._index_pop_fn(state.stage),
            )

    def _index_enqueue_fn(self, stage: int) -> Callable[[int], None]:
        def on_enqueue(subnet_id: int) -> None:
            assert self.engine is not None
            self.tracker.index_add(
                stage, subnet_id, self.engine.stage_layers(subnet_id, stage)
            )

        return on_enqueue

    def _index_pop_fn(self, stage: int) -> Callable[[int], None]:
        def on_pop(subnet_id: int) -> None:
            self.tracker.index_discard(stage, subnet_id)

        return on_pop

    # ------------------------------------------------------------------
    #: Algorithm 1 retrieves subnets continuously; the queue list holds
    #: descriptors only (no GPU memory), bounded as in the paper's
    #: complexity analysis ("|L_q| is usually ... less than 30").
    QUEUE_CAP = 30

    def can_inject(self) -> bool:
        # Admission is a *descriptor* operation for CSP: a parked subnet
        # costs nothing until its first forward starts, so admission is
        # capped by queue length, not by the execution window.  Count
        # admitted-but-unstarted subnets rather than the stage-0 queue —
        # same-instant injections only reach the queue at their arrival
        # event, and counting the queue would let a burst overshoot.
        assert self.engine is not None
        parked = len(self.engine.inflight) - self.engine.active_started_count()
        return parked < self.QUEUE_CAP

    def can_start_forward(self, stage: int, subnet_id: int) -> bool:
        # The execution window (activation stashes) only counts subnets
        # that have actually started.
        assert self.engine is not None
        if stage != 0:
            return True
        return self.engine.active_started_count() < self.effective_window()

    def on_injected(self, subnet_id: int) -> None:
        assert self.engine is not None
        self.tracker.register(self.engine.subnet_of(subnet_id))

    def select_forward(self, stage: int) -> Optional[int]:
        self.tracker.dirty_scopes.discard(stage)
        if stage == 0:
            self._window_seen = self.effective_window()
        chosen = self._select_forward_inner(stage)
        self._observe_selection(stage, chosen)
        return chosen

    def wakes(self) -> Iterable[int]:
        # A poll answers from the stage's ready list alone — plus, at
        # stage 0, the execution window, whose occupancy only moves on
        # stage 0's own tasks but whose size degradation may change.
        woken = self.tracker.dirty_scopes
        if self._window_seen != self.effective_window():
            woken.add(0)
        return sorted(woken)

    # ------------------------------------------------------------------
    # observability: CSP wait windows + ready-set counter samples
    # ------------------------------------------------------------------
    def _observe_selection(self, stage: int, chosen: Optional[int]) -> None:
        assert self.engine is not None
        trace = self.engine.trace
        now = self.engine.sim.now
        state = self.engine.stage_states[stage]
        size = self.tracker.ready_count(stage)
        if self._ready_size.get(stage) != size:
            self._ready_size[stage] = size
            trace.append_event("ready_set", now, stage, -1, _ready_set_attrs(size))
        if chosen is not None:
            since = self._wait_since.pop(stage, None)
            if since is not None:
                trace.record_event(
                    "csp_wait_end",
                    now,
                    stage=stage,
                    subnet_id=chosen,
                    waited_ms=now - since,
                )
            return
        if not state.queue or stage in self._wait_since:
            return
        head = state.queue[0]
        blocking = self.tracker.blocking_user(
            head, self.engine.stage_layers(head, stage)
        )
        if blocking is None:
            return  # held by the execution window, not by a dependency
        user, layer = blocking
        self._wait_since[stage] = now
        trace.record_event(
            "csp_wait_begin",
            now,
            stage=stage,
            subnet_id=head,
            blocking_subnet=user,
            block=layer[0],
            choice=layer[1],
        )

    def _select_forward_inner(self, stage: int) -> Optional[int]:
        assert self.engine is not None
        state = self.engine.stage_states[stage]
        if stage == 0 and not self.can_start_forward(0, -1):
            return None  # execution window full; queue keeps its parked ids
        if self.config.in_order_only:
            # "w/o scheduler" ablation: only the head of the queue may
            # run; no aggressive advancement of later, independent tasks.
            if not state.queue:
                return None
            head = state.queue[0]
            layers = self.engine.stage_layers(head, stage)
            return head if self.tracker.is_clear(head, layers) else None

        decision = self.scheduler.schedule(state.queue, self.tracker, stage)
        if not decision.found:
            return None
        # Safety validation (paper §3.1) with exact per-layer semantics,
        # read from the unreleased-user lists the index is built on: a
        # proposal it rejects means the index lost an edge.
        qval = decision.qval
        blocking = self.tracker.blocking_user(
            qval, self.engine.stage_layers(qval, stage)
        )
        if blocking is None:
            return qval
        user, layer = blocking
        raise SchedulingError(
            f"stage {stage}: the readiness index proposed subnet {qval}, "
            f"still blocked by subnet {user} on layer {layer}"
        )

    # ------------------------------------------------------------------
    def before_task(self, stage: int, subnet_id: int, is_backward: bool) -> None:
        if not self._predictors:
            return
        assert self.engine is not None
        predictor = self._predictors[stage]
        state = self.engine.stage_states[stage]
        if is_backward:
            predictions = predictor.predict_on_backward(
                subnet_id,
                self.tracker,
                pending_backward_hints=sorted(state.busy_subnets),
            )
        else:
            predictions = predictor.predict_on_forward(subnet_id, self.tracker)
        for prediction in predictions:
            layers = self.engine.stage_layers(prediction.task.subnet_id, stage)
            self.engine.prefetch_context(stage, layers)

    # ------------------------------------------------------------------
    def on_backward_done(self, stage: int, subnet_id: int) -> None:
        assert self.engine is not None
        self.tracker.release_layers(
            subnet_id, self.engine.stage_layers(subnet_id, stage)
        )

    def on_subnet_complete(self, subnet_id: int) -> List[int]:
        self.tracker.mark_finished(subnet_id)
        return []
