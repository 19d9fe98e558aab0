"""Balanced contiguous D-partitioning of per-block costs.

The classic *linear partition* problem: split a sequence of ``m``
non-negative block costs into ``D`` contiguous segments minimising the
maximum segment sum (the pipeline's step time is set by its slowest
stage).  We solve it exactly with binary search over the answer plus a
greedy feasibility check — O(m log Σcost) — which is optimal for the
min-max objective and fast enough to run per subnet (the paper partitions
every subnet individually, at second-level subnet frequency).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.errors import PartitionError

__all__ = [
    "Partition",
    "balanced_partition",
    "weighted_balanced_partition",
    "partition_cost",
    "partition_imbalance",
]

#: A partition is a list of ``(start, stop)`` block ranges, one per stage,
#: contiguous and covering ``[0, m)``.
Partition = List[Tuple[int, int]]


def _fits(costs: Sequence[float], limit: float, stages: int) -> Tuple[bool, float]:
    """Whether greedy left-to-right filling needs at most ``stages``
    segments of sum ≤ ``limit``; gives up at the first segment too many.

    Returns ``(fits, bound)``.  The pass's decisions are its comparisons
    ``running + cost > limit``; another limit that gives every one of
    them the same answer makes the same pass.  When it fits, ``bound``
    is at least every sum it kept, so every limit in ``[bound, limit]``
    fits the same way.  When it fails, ``bound`` is the smallest sum
    that overflowed, so every limit in ``[limit, bound)`` fails the same
    way.

    ``limit`` must be at least ``max(costs)`` — the bisection below never
    asks about less — so no single block is infeasible on its own.
    """
    spare = stages - 1
    running = 0.0
    kept = 0.0
    overflow = math.inf
    for cost in costs:
        total = running + cost
        if total > limit:
            if total < overflow:
                overflow = total
            if not spare:
                return False, overflow
            spare -= 1
            # a segment's sums only grow, so its last is its largest
            if running > kept:
                kept = running
            running = cost
        else:
            running = total
    return True, max(kept, running)


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
    _check_costs(costs)
    low = max(costs) if costs else 0.0
    high = float(sum(costs))
    # Binary search the smallest feasible max-segment sum.  48 iterations
    # of float bisection reaches machine precision for any realistic sum.
    # A question the last fitting or failing pass already answers (see
    # _fits) is answered from its bound: every later ``mid`` lies below
    # the last limit that fit and above the last that failed, so inside
    # the range where that pass would decide exactly as it did.
    fits_from = math.inf
    fails_below = -math.inf
    for _ in range(48):
        mid = (low + high) / 2.0
        if mid >= fits_from:
            high = mid
        elif mid < fails_below:
            low = mid
        else:
            fits, bound = _fits(costs, mid, stages)
            if fits:
                high = mid
                fits_from = bound
            else:
                low = mid
                fails_below = bound
    return _cut_at_limit(costs, high, stages)


def _check_costs(costs: Sequence[float]) -> None:
    """Refuse a NaN, an infinity or a negative cost: the bisection
    compares sums, and a NaN compares false with everything."""
    if not all(0 <= cost < math.inf for cost in costs):
        raise PartitionError("block costs must be finite and non-negative")


def _weighted_cut(
    costs: Sequence[float],
    weights: Sequence[float],
    limit: float,
    stages: int,
) -> Tuple[Partition, bool]:
    """Greedy max-prefix cut under per-stage caps ``limit / weight_s``.

    Returns ``(partition, feasible)``: the cut always covers all blocks
    (a stage's mandatory first block is taken even over its cap, and no
    stage may strand later stages below one block each), ``feasible`` is
    False when any cap was exceeded.
    """
    partition: Partition = []
    start = 0
    m = len(costs)
    feasible = True
    for stage in range(stages):
        cap = limit / weights[stage]
        stages_left_after = stages - stage - 1
        stop = start
        running = 0.0
        while stop < m - stages_left_after:
            if stop > start and running + costs[stop] > cap:
                break
            running += costs[stop]
            stop += 1
        if stages_left_after == 0:
            # the final stage owns every remaining block regardless of
            # its cap — the cut must always cover [0, m)
            while stop < m:
                running += costs[stop]
                stop += 1
        if running > cap:
            feasible = False
        partition.append((start, stop))
        start = stop
    if start != m:
        raise PartitionError(
            f"internal: weighted cut covered {start} of {m} blocks"
        )
    return partition, feasible


def weighted_balanced_partition(
    costs: Sequence[float],
    stages: int,
    stage_weights: Sequence[float],
) -> Partition:
    """Min-max contiguous partition of *weighted* stage loads.

    Minimises ``max_s(weight_s × segment_sum_s)`` — a stage with weight
    ``w`` runs its blocks ``w×`` slower (a straggler), so the optimum
    shifts boundaries away from it.  Uniform weights reduce to
    :func:`balanced_partition` exactly (same code path, so identical
    cuts).  Bisection over the answer with a greedy max-prefix
    feasibility check; with the one-block-per-stage floor the greedy
    check errs on the safe side in degenerate corners, yielding a valid,
    near-optimal cut.

    >>> weighted_balanced_partition([1, 1, 1, 1], 2, [3.0, 1.0])
    [(0, 1), (1, 4)]
    """
    if len(stage_weights) != stages:
        raise PartitionError(
            f"need {stages} stage weights, got {len(stage_weights)}"
        )
    if any(weight <= 0 for weight in stage_weights):
        raise PartitionError("stage weights must be positive")
    if all(weight == stage_weights[0] for weight in stage_weights):
        return balanced_partition(costs, stages)
    m = len(costs)
    if m < stages:
        raise PartitionError(
            f"cannot split {m} blocks into {stages} stages (need >= 1 each)"
        )
    _check_costs(costs)
    low = 0.0
    high = max(stage_weights) * float(sum(costs))
    for _ in range(60):
        mid = (low + high) / 2.0
        _, feasible = _weighted_cut(costs, stage_weights, mid, stages)
        if feasible:
            high = mid
        else:
            low = mid
    partition, _ = _weighted_cut(costs, stage_weights, high, stages)
    return partition


def partition_cost(costs: Sequence[float], partition: Partition) -> float:
    """The max stage sum — the pipeline step time this partition yields."""
    return max(sum(costs[start:stop]) for start, stop in partition)


def partition_imbalance(costs: Sequence[float], partition: Partition) -> float:
    """Max stage sum over mean stage sum (1.0 = perfectly balanced)."""
    sums = [sum(costs[start:stop]) for start, stop in partition]
    mean = sum(sums) / len(sums)
    if mean == 0:
        return 1.0
    return max(sums) / mean
