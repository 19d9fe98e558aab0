"""Partitioning tests: optimality, coverage, static partitions, mirrors."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PartitionError
from repro.partition import (
    MirrorRegistry,
    balanced_partition,
    partition_cost,
    partition_imbalance,
    static_partition_for_space,
)
from repro.partition.balanced import _cut_at_limit, _fits, weighted_balanced_partition
from repro.partition.static import expected_block_costs
from repro.supernet.subnet import Subnet


def _brute_force_minmax(costs, stages):
    """Exhaustive optimal min-max over all contiguous partitions."""
    m = len(costs)
    best = float("inf")
    for cuts in itertools.combinations(range(1, m), stages - 1):
        bounds = [0, *cuts, m]
        worst = max(
            sum(costs[bounds[i] : bounds[i + 1]]) for i in range(stages)
        )
        best = min(best, worst)
    return best


def test_balanced_partition_simple():
    assert balanced_partition([1, 1, 1, 1], 2) == [(0, 2), (2, 4)]


def test_partition_covers_all_blocks():
    partition = balanced_partition([3, 1, 4, 1, 5, 9, 2, 6], 3)
    flat = []
    for start, stop in partition:
        flat.extend(range(start, stop))
    assert flat == list(range(8))
    assert all(stop > start for start, stop in partition)


@given(
    st.lists(st.floats(0.01, 50.0), min_size=3, max_size=9),
    st.integers(2, 3),
)
@settings(max_examples=60, deadline=None)
def test_balanced_partition_is_optimal(costs, stages):
    if len(costs) < stages:
        costs = costs + [1.0] * (stages - len(costs))
    partition = balanced_partition(costs, stages)
    achieved = partition_cost(costs, partition)
    optimal = _brute_force_minmax(costs, stages)
    assert achieved <= optimal * (1 + 1e-9) + 1e-9


def _greedy_segments_needed(costs, limit):
    """The bisection's feasibility count as it stood before ``_fits``
    replaced it: minimum segments with no sum over ``limit`` (more than
    ``len(costs)`` when one block alone exceeds it).  Kept as the oracle."""
    segments = 1
    running = 0.0
    for cost in costs:
        if cost > limit:
            return len(costs) + 1
        if running + cost > limit:
            segments += 1
            running = cost
        else:
            running += cost
    return segments


@given(
    st.lists(st.floats(0.0, 50.0), min_size=1, max_size=24),
    st.integers(1, 9),
    st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_early_exit_predicate_agrees_with_counting(costs, stages, position):
    # anywhere the bisection can ask: max(costs) <= limit <= sum(costs)
    limit = max(costs) + position * (sum(costs) - max(costs))
    assert _fits(costs, limit, stages)[0] == (
        _greedy_segments_needed(costs, limit) <= stages
    )


@given(st.lists(st.floats(0.0, 50.0), min_size=8, max_size=48), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_balanced_partition_cut_unchanged_by_the_predicate(costs, stages):
    low, high = max(costs), float(sum(costs))
    for _ in range(48):
        mid = (low + high) / 2.0
        if _greedy_segments_needed(costs, mid) <= stages:
            high = mid
        else:
            low = mid
    assert balanced_partition(costs, stages) == _cut_at_limit(costs, high, stages)


def test_balanced_partition_errors():
    with pytest.raises(PartitionError):
        balanced_partition([1.0], 2)
    with pytest.raises(PartitionError):
        balanced_partition([1.0, 2.0], 0)
    with pytest.raises(PartitionError):
        balanced_partition([1.0, -1.0], 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_balanced_partition_refuses_a_non_finite_or_negative_cost(bad):
    with pytest.raises(PartitionError, match="finite and non-negative"):
        balanced_partition([1.0, bad, 2.0], 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_weighted_balanced_partition_refuses_a_non_finite_or_negative_cost(bad):
    with pytest.raises(PartitionError, match="finite and non-negative"):
        weighted_balanced_partition([1.0, bad, 2.0], 2, [1.0, 2.0])


def test_partition_imbalance_perfect():
    assert partition_imbalance([2, 2, 2, 2], [(0, 2), (2, 4)]) == 1.0
    assert partition_imbalance([4, 1, 1, 1], [(0, 1), (1, 4)]) > 1.0


def test_static_partition_balances_expected_costs(small_supernet):
    partition = static_partition_for_space(small_supernet, 4)
    costs = expected_block_costs(small_supernet)
    assert len(partition) == 4
    assert partition_imbalance(costs, partition) < 1.6


def test_per_subnet_balanced_beats_static(small_supernet):
    """The mirroring payoff: a subnet's own balanced partition never has
    a worse max-stage time than the static partition."""
    from repro.seeding import SeedSequenceTree
    from repro.supernet.sampler import SposSampler

    static = static_partition_for_space(small_supernet, 4)
    sampler = SposSampler(small_supernet.space, SeedSequenceTree(3))
    for subnet in sampler.sample_many(20):
        costs = [
            small_supernet.profile(layer).fwd_ms_ref
            + small_supernet.profile(layer).bwd_ms_ref
            for layer in subnet.layer_ids()
        ]
        own = balanced_partition(costs, 4)
        assert partition_cost(costs, own) <= partition_cost(costs, static) + 1e-9


# ----------------------------------------------------------------------
# mirroring
# ----------------------------------------------------------------------
def test_mirror_home_stage_lookup():
    registry = MirrorRegistry(home_partition=[(0, 4), (4, 8)])
    assert registry.home_stage((0, 0)) == 0
    assert registry.home_stage((7, 3)) == 1
    with pytest.raises(KeyError):
        registry.home_stage((8, 0))


def test_mirror_created_only_off_home():
    registry = MirrorRegistry(home_partition=[(0, 4), (4, 8)])
    assert not registry.ensure_resident_stage((0, 0), 0)
    assert registry.ensure_resident_stage((0, 0), 1)
    assert not registry.ensure_resident_stage((0, 0), 1)  # idempotent
    assert sum(len(stages) > 1 for stages in registry._replicas.values()) == 1


def test_mirror_register_subnet_and_push_accounting():
    registry = MirrorRegistry(home_partition=[(0, 4), (4, 8)])
    subnet = Subnet(0, tuple([0] * 8))
    # Shifted partition: block 4 executes on stage 0, block 3 on stage 1.
    events = registry.register_subnet(subnet, [(0, 5), (5, 8)])
    assert {(e.layer[0], e.stage) for e in events} == {(4, 0)}
    sent = registry.record_update_push((4, 0), param_bytes=100)
    assert sent == 100  # one replica besides home
    assert registry.record_update_push((0, 0), param_bytes=100) == 0
    assert registry.push_bytes_total == 100
