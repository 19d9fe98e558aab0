"""Profiling harness, custom space builder, FairSampler, scheduler-cost
experiment tests."""

import pytest

from repro.errors import SearchSpaceError
from repro.nn.layers import LAYER_IMPLEMENTATIONS
from repro.profiling import (
    measurements_to_profiles,
    profile_families,
    profile_layer,
)
from repro.seeding import SeedSequenceTree
from repro.supernet.builder import SearchSpaceBuilder
from repro.supernet.catalog import NLP_LAYER_TYPES
from repro.supernet.sampler import FairSampler
from repro.supernet.search_space import get_search_space

from dependency_reference import depends_on


# ----------------------------------------------------------------------
# profiling
# ----------------------------------------------------------------------
def test_profile_layer_measures_positive_costs():
    measurement = profile_layer("linear", width=16, batch=8, repeats=3)
    assert measurement.fwd_ms > 0
    assert measurement.bwd_ms > 0
    assert measurement.param_count == 16 * 16 + 16  # weight + bias


def test_profile_families_covers_all():
    measurements = profile_families(width=16, batch=8, repeats=2)
    assert set(measurements) == set(LAYER_IMPLEMENTATIONS)


def test_measurements_to_profiles_roundtrip():
    measurements = profile_families(["linear", "glu"], width=16, batch=8, repeats=2)
    profiles = measurements_to_profiles(measurements)
    assert profiles["linear"].impl == "linear"
    assert profiles["linear"].param_count == measurements["linear"].param_count
    assert profiles["glu"].fwd_ms == measurements["glu"].fwd_ms


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
def _builder_with_blocks(blocks=3, candidates=2):
    builder = SearchSpaceBuilder("custom-test", domain="NLP")
    for _ in range(blocks):
        builder.add_block(list(NLP_LAYER_TYPES[:candidates]))
    return builder


def test_builder_constructs_supernet():
    supernet = _builder_with_blocks(4, 3).build()
    assert supernet.space.num_blocks == 4
    assert supernet.space.choices_per_block == 3
    profile = supernet.profile((0, 1))
    assert profile.type_profile == NLP_LAYER_TYPES[1]
    assert profile.size_scale == 1.0


def test_builder_scales_apply():
    builder = SearchSpaceBuilder("scaled", domain="NLP")
    builder.add_block(list(NLP_LAYER_TYPES[:2]), scales=[0.5, 2.0])
    builder.add_block(list(NLP_LAYER_TYPES[:2]))
    supernet = builder.build()
    assert supernet.profile((0, 0)).size_scale == 0.5
    assert supernet.profile((0, 1)).size_scale == 2.0


def test_builder_validation():
    with pytest.raises(SearchSpaceError):
        SearchSpaceBuilder("x").build()  # no blocks
    builder = SearchSpaceBuilder("x")
    with pytest.raises(SearchSpaceError):
        builder.add_block([])
    with pytest.raises(SearchSpaceError):
        builder.add_block(list(NLP_LAYER_TYPES[:2]), scales=[1.0])
    builder.add_block(list(NLP_LAYER_TYPES[:2]))
    builder.add_block(list(NLP_LAYER_TYPES[:3]))
    with pytest.raises(SearchSpaceError):
        builder.build()  # uneven candidate counts


def test_builder_unknown_candidate_raises():
    supernet = _builder_with_blocks().build()
    with pytest.raises(SearchSpaceError):
        supernet.profile((0, 5))


def test_custom_supernet_runs_in_pipeline():
    from repro.baselines import naspipe
    from repro.engines.pipeline import PipelineEngine
    from repro.sim.cluster import ClusterSpec
    from repro.supernet.sampler import SubnetStream

    supernet = _builder_with_blocks(blocks=8, candidates=4).build()
    stream = SubnetStream.sample(supernet.space, SeedSequenceTree(1), 10)
    result = PipelineEngine(
        supernet, stream, naspipe(), ClusterSpec(num_gpus=4), batch=16
    ).run()
    assert result.subnets_completed == 10


# ----------------------------------------------------------------------
# fair sampler
# ----------------------------------------------------------------------
def test_fair_sampler_strict_fairness():
    space = get_search_space("NLP.c3").scaled(num_blocks=6, choices_per_block=5)
    sampler = FairSampler(space, SeedSequenceTree(3))
    rounds = 4
    subnets = sampler.sample_many(rounds * 5)
    for block in range(6):
        counts = [0] * 5
        for subnet in subnets:
            counts[subnet.choices[block]] += 1
        assert counts == [rounds] * 5  # every candidate exactly per round


def test_fair_sampler_no_intra_round_conflicts():
    space = get_search_space("NLP.c3").scaled(num_blocks=6, choices_per_block=5)
    subnets = FairSampler(space, SeedSequenceTree(3)).sample_many(5)
    for i, a in enumerate(subnets):
        for b in subnets[i + 1:]:
            assert not depends_on(a, b)


def test_fair_sampler_deterministic():
    space = get_search_space("CV.c3").scaled(num_blocks=4)
    a = FairSampler(space, SeedSequenceTree(3)).sample_many(10)
    b = FairSampler(space, SeedSequenceTree(3)).sample_many(10)
    assert [s.choices for s in a] == [s.choices for s in b]


# ----------------------------------------------------------------------
# scheduler cost experiment
# ----------------------------------------------------------------------
def test_scheduler_cost_linear_in_worst_case():
    from repro.experiments import scheduler_cost

    points = scheduler_cost.run(queue_sizes=[5, 30], calls_per_point=50)
    worst = {p.queue_size: p for p in points if p.scenario == "worst"}
    assert worst[5].scans_per_call == 5
    assert worst[30].scans_per_call == 30
    average = {p.queue_size: p for p in points if p.scenario == "average"}
    assert average[30].mean_call_us < 1000  # far under the 10ms claim
    text = scheduler_cost.format_text(points)
    assert "within the paper's 10 ms bound" in text
