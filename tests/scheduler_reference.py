"""Reference scheduler + stream driver for the differential suites.

:class:`ScanOracle` is Definition 2 as a queue walk — the exact per-layer
check the readiness index must be decision-identical to.  It used to be
``CspScheduler(mode="scan")``; as a reference it belongs here.

:func:`drive_scheduler_stream` (moved from ``repro.profiling``) pushes any
scheduler through a synthetic admit/schedule/release stream and returns
its decision sequence.  Shared by ``tests/test_scheduler_equivalence.py``
and ``benchmarks/test_scheduler_scaling.py``.
"""

from bisect import insort
from random import Random
from typing import List, Tuple

from repro.core.dependency import DependencyTracker
from repro.core.scheduler import ScheduleDecision
from repro.supernet.subnet import Subnet


class ScanOracle:
    """First queued id whose stage slice ``tracker.is_clear`` — drop-in
    for ``CspScheduler`` (same ``schedule`` signature and counters, so it
    can be injected as ``engine.policy.scheduler``).  The stage slice of
    a queued id is the one the queue's mirror handed ``index_add``; the
    oracle reads it back but none of the index's edges or ready list."""

    def __init__(self):
        self.calls = self.scans = self.ready_pops = 0

    def schedule(self, queue, tracker, scope):
        self.calls += 1
        stage_layers = tracker._scopes[scope].layers if queue else {}
        for qidx, qval in enumerate(queue):
            self.scans += 1
            if tracker.is_clear(qval, stage_layers[qval]):
                return ScheduleDecision(qidx, qval)
        return ScheduleDecision(-1, -1)


def drive_scheduler_stream(
    scheduler,
    num_subnets: int,
    queue_cap: int = 8,
    inflight_cap: int = 3,
    num_blocks: int = 8,
    num_choices: int = 8,
    stages: int = 8,
    seed: int = 2022,
    chained: bool = False,
) -> Tuple[Tuple[int, int], ...]:
    """Drive ``scheduler`` through a synthetic subnet stream.

    The loop mimics one stage's Algorithm 1 skeleton: admit subnets into
    a sorted queue up to ``queue_cap`` (mirrored into the tracker's
    readiness index, as the CSP policy does), ask SCHEDULE() for the next
    forward, keep up to ``inflight_cap`` scheduled subnets unreleased
    (their WRITEs still pending), and retire the oldest when the queue is
    fully blocked.  Subnets are drawn uniformly, or, with ``chained``,
    each is the previous one with one block mutated (the shape of
    ``Subnet.mutate`` in evolutionary search): neighbours then nearly
    always share the stage's layers, so most queued subnets wait on an
    in-flight predecessor and waits chain down the queue.  Everything is
    derived from ``seed``.  Returns every ``(qidx, qval)`` the scheduler
    answered, in call order (NONE decisions included as ``(-1, -1)``):
    two schedulers run with equal parameters must produce identical
    sequences.
    """
    rng = Random(seed)
    subnets = [Subnet(0, tuple(rng.randrange(num_choices) for _ in range(num_blocks)))]
    for i in range(1, num_subnets):
        if chained:
            block, choice = rng.randrange(num_blocks), rng.randrange(num_choices)
            subnets.append(subnets[-1].mutate(block, choice).with_id(i))
        else:
            subnets.append(
                Subnet(i, tuple(rng.randrange(num_choices) for _ in range(num_blocks)))
            )
    slice_stop = max(1, num_blocks // stages)

    def stage_layers(subnet_id: int) -> List:
        return subnets[subnet_id].layers_in_range(0, slice_stop)

    tracker = DependencyTracker()
    scope = 0
    queue: List[int] = []
    inflight: List[int] = []
    decisions: List[Tuple[int, int]] = []
    next_id = 0

    def admit() -> None:
        nonlocal next_id
        while next_id < num_subnets and len(queue) < queue_cap:
            tracker.register(subnets[next_id])
            insort(queue, next_id)
            tracker.index_add(scope, next_id, stage_layers(next_id))
            next_id += 1

    admit()
    while queue:
        decision = scheduler.schedule(queue, tracker, scope)
        decisions.append((decision.qidx, decision.qval))
        if decision.found:
            queue.remove(decision.qval)
            tracker.index_discard(scope, decision.qval)
            inflight.append(decision.qval)
            if len(inflight) > inflight_cap:
                tracker.mark_finished(inflight.pop(0))
            admit()
        else:
            # with nothing in flight every earlier subnet has finished,
            # so the lowest queued one is clear: a NONE means one is
            assert inflight, "NONE with nothing in flight"
            tracker.mark_finished(inflight.pop(0))
    while inflight:
        tracker.mark_finished(inflight.pop(0))
    return tuple(decisions)
