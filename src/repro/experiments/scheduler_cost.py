"""Scheduler cost analysis — backing the paper's §3.2 complexity claim.

The paper argues Algorithm 2 costs O(|L_q|·(|L_f| + m²)) per call, kept
small (<0.01 s) by the finished-list elimination scheme, and therefore
negligible against second-scale subnet executions.  This experiment
measures the real per-call wall time of that algorithm — the pseudocode
verbatim, :func:`_schedule` over the experiment's own L_SN and L_f — at
growing queue sizes, in the average case (a random SPOS queue) and the
worst (every queued subnet blocked, so each call walks the whole queue).

The runtime's scheduler pops the exact per-layer check from a readiness
index instead; its cost over long streams is the ledger's
``core.sched_busy_s`` row and ``benchmarks/test_scheduler_scaling.py``.
"""

from __future__ import annotations

import timeit
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.nn.parameter_store import LayerId
from repro.seeding import SeedSequenceTree
from repro.supernet.sampler import SposSampler
from repro.supernet.search_space import get_search_space
from repro.supernet.subnet import Subnet

__all__ = ["SchedulerCostPoint", "run", "format_text"]


@dataclass
class SchedulerCostPoint:
    queue_size: int
    scenario: str  # "average" (random SPOS queue) | "worst" (all blocked)
    mean_call_us: float
    scans_per_call: float


def _schedule(
    queue: Sequence[int],
    stage_layers: Callable[[int], Sequence[LayerId]],
    known: Dict[int, Subnet],
    finished: Set[int],
) -> Tuple[int, int]:
    """Algorithm 2 (SCHEDULE) verbatim: the first queued subnet whose
    stage slice shares no layer with any earlier subnet of L_SN
    (``known``) that is not in L_f (``finished``).  Returns its queue
    index (-1 = none) and the queue entries examined."""
    for qidx, qval in enumerate(queue):
        layer_set = set(stage_layers(qval))
        for wval in range(qval):
            earlier = known.get(wval)
            if earlier is None or wval in finished:
                continue
            if any(earlier.choices[block] == choice for block, choice in layer_set):
                break
        else:
            return qidx, qidx + 1
    return -1, len(queue)


def _measure(
    subnets, queue_size: int, scenario: str, stages: int, calls: int,
    num_blocks: int,
) -> SchedulerCostPoint:
    queue = [subnet.subnet_id for subnet in subnets[1:]]
    known = {subnet.subnet_id: subnet for subnet in subnets}
    finished: Set[int] = set()
    slice_size = num_blocks // stages

    def stage_layers(subnet_id: int):
        return known[subnet_id].layers_in_range(0, slice_size)

    scans = 0

    def call() -> None:
        nonlocal scans
        scans += _schedule(queue, stage_layers, known, finished)[1]

    elapsed = timeit.timeit(call, number=calls)
    return SchedulerCostPoint(
        queue_size=queue_size,
        scenario=scenario,
        mean_call_us=elapsed / calls * 1e6,
        scans_per_call=scans / calls,
    )


def run(
    space_name: str = "NLP.c1",
    queue_sizes: Optional[List[int]] = None,
    calls_per_point: int = 300,
    stages: int = 8,
    seed: int = 2022,
) -> List[SchedulerCostPoint]:
    space = get_search_space(space_name)
    sampler = SposSampler(space, SeedSequenceTree(seed))
    points: List[SchedulerCostPoint] = []
    for queue_size in queue_sizes or [5, 10, 20, 30, 60]:
        # Average case: a random SPOS queue — the head is usually clear.
        points.append(
            _measure(
                sampler.sample_many(queue_size + 1),
                queue_size,
                "average",
                stages,
                calls_per_point,
                space.num_blocks,
            )
        )
        # Worst case: every queued subnet blocked by subnet 0, so every
        # call scans the full queue and finds nothing.
        identical = [
            Subnet(i, tuple([0] * space.num_blocks))
            for i in range(queue_size + 1)
        ]
        points.append(
            _measure(
                identical, queue_size, "worst", stages, calls_per_point,
                space.num_blocks,
            )
        )
    return points


def format_text(points: List[SchedulerCostPoint]) -> str:
    lines = [
        "Scheduler cost (Algorithm 2) vs queue size — paper claims "
        "<0.01 s per call",
        "",
        f"{'|L_q|':>6s} {'scenario':>9s} {'mean call (µs)':>15s} "
        f"{'scans/call':>11s}",
    ]
    for point in points:
        lines.append(
            f"{point.queue_size:>6d} {point.scenario:>9s} "
            f"{point.mean_call_us:>15.1f} {point.scans_per_call:>11.1f}"
        )
    worst_ms = max(point.mean_call_us for point in points) / 1000.0
    lines.append("")
    lines.append(
        f"worst observed: {worst_ms:.3f} ms/call "
        f"({'within' if worst_ms < 10 else 'OUTSIDE'} the paper's 10 ms bound)"
    )
    return "\n".join(lines)
