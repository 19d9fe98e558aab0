"""The balanced partition against its copy from before the bisection
answered questions from its own bounds.

``tests/partition_reference.py`` keeps ``balanced_partition`` as it was
when each of the 48 bisection steps ran a greedy pass.  The live one
runs a pass only for a ``mid`` the bounds of its earlier passes do not
answer (``repro.partition.balanced._fits``); its cut must be the same,
on drawn costs with exact ties, zeros and repeated values at magnitudes
from 1e-6 to 1e6.  The guard below counts the passes and fails on that
copy.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import partition_reference
from repro.partition import balanced
from repro.seeding import SeedSequenceTree
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

MAGNITUDES = st.just(0.0) | st.floats(1e-6, 1e6) | st.integers(0, 10**6).map(float)


@st.composite
def costs_and_stages(draw):
    """Costs drawn from a small palette (so sums tie exactly and values
    repeat) or each on its own, and a stage count from 1 to ``m``."""
    m = draw(st.integers(1, 96), label="m")
    if draw(st.booleans(), label="palette"):
        palette = draw(st.lists(MAGNITUDES, min_size=1, max_size=4), label="values")
        costs = draw(st.lists(st.sampled_from(palette), min_size=m, max_size=m))
    else:
        costs = draw(st.lists(MAGNITUDES, min_size=m, max_size=m), label="costs")
    return costs, draw(st.integers(1, m), label="stages")


@settings(max_examples=400, deadline=None)
@given(costs_and_stages())
def test_the_cut_matches_the_reference(drawn):
    costs, stages = drawn
    assert balanced.balanced_partition(costs, stages) == partition_reference.balanced_partition(
        costs, stages
    )


@settings(max_examples=300, deadline=None)
@given(costs_and_stages(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_a_pass_decides_alike_across_its_bound(drawn, position, between):
    """Every limit between a pass's limit and its bound gets the answer
    the pass gave (the bisection's shortcut, asked directly)."""
    costs, stages = drawn
    low, high = max(costs), float(sum(costs))
    limit = low + position * (high - low)
    fits, bound = balanced._fits(costs, limit, stages)
    if fits:
        assert bound <= limit
        other = bound + between * (limit - bound)
    else:
        assert bound > limit
        other = limit + between * (bound - limit)
        if other >= bound:
            other = limit
    assert balanced._fits(costs, other, stages)[0] == fits
    assert partition_reference._fits(costs, other, stages) == fits


def test_a_subnet_stream_is_cut_in_few_greedy_passes(monkeypatch):
    """Over a 384-subnet NLP.c3 stream on 8 stages, the bisection's 48
    questions cost at most 12 greedy passes a call on average (48 when
    every question ran one)."""
    space = get_search_space("NLP.c3")
    supernet = Supernet(space)
    stream = SubnetStream.sample(space, SeedSequenceTree(2022), 384)
    passes = []
    real_fits = balanced._fits

    def counted(costs, limit, stages):
        passes.append(limit)
        return real_fits(costs, limit, stages)

    monkeypatch.setattr(balanced, "_fits", counted)
    for subnet in stream:
        costs = [
            supernet.profile(layer).fwd_ms_ref + supernet.profile(layer).bwd_ms_ref
            for layer in subnet.layer_ids()
        ]
        balanced.balanced_partition(costs, 8)
    assert len(passes) / len(stream) <= 12
