"""Sampler and stream tests: determinism, ordering, generational
diversity, hybrid interleaving."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SearchSpaceError
from repro.seeding import SeedSequenceTree
from repro.supernet import SposSampler, SubnetStream, get_search_space
from repro.supernet.sampler import GenerationalSampler, interleave_streams
from repro.supernet.subnet import Subnet

from dependency_reference import depends_on
from sampler_reference import validate_choices


def test_spos_deterministic_per_seed(tiny_space):
    a = SposSampler(tiny_space, SeedSequenceTree(5)).sample_many(10)
    b = SposSampler(tiny_space, SeedSequenceTree(5)).sample_many(10)
    assert [s.choices for s in a] == [s.choices for s in b]
    c = SposSampler(tiny_space, SeedSequenceTree(6)).sample_many(10)
    assert [s.choices for s in a] != [s.choices for s in c]


def test_spos_ids_dense_and_choices_in_range(tiny_space):
    subnets = SposSampler(tiny_space, SeedSequenceTree(5)).sample_many(20)
    assert [s.subnet_id for s in subnets] == list(range(20))
    for subnet in subnets:
        validate_choices(tiny_space, subnet.choices)


def test_spos_marginals_roughly_uniform():
    space = get_search_space("NLP.c3").scaled(num_blocks=4, choices_per_block=4)
    subnets = SposSampler(space, SeedSequenceTree(0)).sample_many(2000)
    counts = [0] * 4
    for subnet in subnets:
        counts[subnet.choices[0]] += 1
    for count in counts:
        assert 380 < count < 620  # ~500 expected


def test_generational_no_intra_generation_conflicts(tiny_space):
    sampler = GenerationalSampler(tiny_space, SeedSequenceTree(5), generation=4)
    subnets = sampler.sample_many(12)
    for g in range(3):
        generation = subnets[g * 4 : (g + 1) * 4]
        for i, a in enumerate(generation):
            for b in generation[i + 1 :]:
                assert not depends_on(a, b), (a, b)


def test_generational_rejects_oversized_generation(tiny_space):
    with pytest.raises(SearchSpaceError):
        GenerationalSampler(
            tiny_space, SeedSequenceTree(5),
            generation=tiny_space.choices_per_block + 1,
        )


def test_generational_deterministic(tiny_space):
    a = GenerationalSampler(tiny_space, SeedSequenceTree(5), generation=4).sample_many(8)
    b = GenerationalSampler(tiny_space, SeedSequenceTree(5), generation=4).sample_many(8)
    assert [s.choices for s in a] == [s.choices for s in b]


def test_stream_retrieve_and_reset(tiny_space):
    stream = SubnetStream.sample(tiny_space, SeedSequenceTree(5), 5)
    ids = []
    while True:
        subnet = stream.retrieve()
        if subnet is None:
            break
        ids.append(subnet.subnet_id)
    assert ids == [0, 1, 2, 3, 4]
    assert stream.remaining == 0
    stream.reset()
    assert stream.remaining == 5
    assert stream.retrieve().subnet_id == 0


def test_stream_rejects_sparse_ids():
    with pytest.raises(SearchSpaceError):
        SubnetStream([Subnet(1, (0,))])


def test_interleave_streams_round_robin():
    a = [Subnet(0, (0, 0)), Subnet(1, (0, 1))]
    b = [Subnet(0, (1, 0))]
    merged = interleave_streams([a, b])
    assert [s.choices for s in merged] == [(0, 0), (1, 0), (0, 1)]
    assert [s.subnet_id for s in merged] == [0, 1, 2]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_stream_replay_identical_for_any_seed(seed):
    space = get_search_space("CV.c3").scaled(num_blocks=6)
    stream = SubnetStream.sample(space, SeedSequenceTree(seed), 6)
    first = [s.choices for s in stream]
    stream.reset()
    second = []
    while stream.remaining:
        second.append(stream.retrieve().choices)
    assert first == second


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["NLP.c0", "NLP.c3", "CV.c1", "CV.c3"]),
    st.integers(1, 64),
    st.integers(1, 24),
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
)
def test_samplers_draw_the_reference_stream(name, blocks, choices, seed, count):
    """Each sampler's stream equals its copy from before the drawn array
    was converted with ``.tolist()`` (``tests/sampler_reference.py``),
    subnet for subnet by ``repr`` — the same ``int``s, never numpy's."""
    from sampler_reference import ReferenceFair, ReferenceGenerational, ReferenceSpos
    from repro.supernet.sampler import FairSampler

    space = get_search_space(name).scaled(
        name=f"{name}-drawn", num_blocks=blocks, choices_per_block=choices
    )
    pairs = [(SposSampler, ReferenceSpos, ()), (FairSampler, ReferenceFair, ())]
    pairs.append(
        (GenerationalSampler, ReferenceGenerational, (min(8, choices),))
    )
    for live, reference, extra in pairs:
        got = live(space, SeedSequenceTree(seed), *extra).sample_many(count)
        want = reference(space, SeedSequenceTree(seed), *extra).sample_many(count)
        assert repr([(s.subnet_id, s.choices) for s in got]) == repr(
            [(s.subnet_id, s.choices) for s in want]
        )
        assert all(type(c) is int for s in got for c in s.choices)
