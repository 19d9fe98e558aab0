"""The balanced partition as it was before its bisection answered
questions from the bounds of its earlier passes.

``_fits``, ``_cut_at_limit`` and ``balanced_partition`` of that time,
copied verbatim: every one of the 48 bisection steps ran a greedy pass.
``tests/test_partition_reference.py`` demands the live partition cut
exactly as these do, on drawn costs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import PartitionError

__all__ = ["balanced_partition"]

Partition = List[Tuple[int, int]]


def _fits(costs: Sequence[float], limit: float, stages: int) -> bool:
    """Whether greedy left-to-right filling needs at most ``stages``
    segments of sum ≤ ``limit``; gives up at the first segment too many.

    ``limit`` must be at least ``max(costs)`` — the bisection below never
    asks about less — so no single block is infeasible on its own.
    """
    spare = stages - 1
    running = 0.0
    for cost in costs:
        if running + cost > limit:
            if not spare:
                return False
            spare -= 1
            running = cost
        else:
            running += cost
    return True


def _cut_at_limit(costs: Sequence[float], limit: float, stages: int) -> Partition:
    """Produce exactly ``stages`` segments with max sum ≤ ``limit``.

    Greedy fill from the left, but never leave fewer remaining blocks than
    remaining stages (each stage must own at least one block).
    """
    partition: Partition = []
    start = 0
    m = len(costs)
    for stage in range(stages):
        stages_left_after = stages - stage - 1
        stop = start
        running = 0.0
        # Extend while within limit and enough blocks remain for the rest.
        while stop < m - stages_left_after:
            if stop > start and running + costs[stop] > limit:
                break
            running += costs[stop]
            stop += 1
        partition.append((start, stop))
        start = stop
    if start != m:
        raise PartitionError(
            f"internal: cut covered {start} of {m} blocks at limit {limit}"
        )
    return partition


def balanced_partition(costs: Sequence[float], stages: int) -> Partition:
    """Optimal min-max contiguous partition of ``costs`` into ``stages``.

    >>> balanced_partition([1, 1, 1, 1], 2)
    [(0, 2), (2, 4)]
    """
    m = len(costs)
    if stages <= 0:
        raise PartitionError(f"stages must be positive, got {stages}")
    if m < stages:
        raise PartitionError(
            f"cannot split {m} blocks into {stages} stages (need >= 1 each)"
        )
    if any(cost < 0 for cost in costs):
        raise PartitionError("block costs must be non-negative")
    low = max(costs) if costs else 0.0
    high = float(sum(costs))
    # Binary search the smallest feasible max-segment sum.  48 iterations
    # of float bisection reaches machine precision for any realistic sum.
    for _ in range(48):
        mid = (low + high) / 2.0
        if _fits(costs, mid, stages):
            high = mid
        else:
            low = mid
    return _cut_at_limit(costs, high, stages)
