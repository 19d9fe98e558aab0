"""Search space, subnet, supernet and catalog tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SearchSpaceError
from repro.supernet import (
    CV_LAYER_TYPES,
    NLP_LAYER_TYPES,
    SEARCH_SPACES,
    Subnet,
    Supernet,
    catalog_for_domain,
    get_search_space,
    list_search_spaces,
)
from repro.supernet.catalog import PCIE_BANDWIDTH_BYTES_PER_MS

from dependency_reference import depends_on, shared_layers
from sampler_reference import validate_choices


# ----------------------------------------------------------------------
# catalog (Table 5 anchoring)
# ----------------------------------------------------------------------
def test_table5_comp_times_verbatim():
    fwd = {p.name: p.fwd_ms for p in NLP_LAYER_TYPES + CV_LAYER_TYPES}
    assert fwd["conv3x1"] == 5.0
    assert fwd["attention8h"] == 7.9
    assert fwd["conv3x3"] == 7.9
    bwd = {p.name: p.bwd_ms for p in NLP_LAYER_TYPES + CV_LAYER_TYPES}
    assert bwd["conv3x1"] == 10.0
    assert bwd["sepconv5x5"] == 9.9


@pytest.mark.parametrize("profile", NLP_LAYER_TYPES + CV_LAYER_TYPES)
def test_swap_time_roundtrips_through_param_bytes(profile):
    # param bytes were derived from Table 5 swap times; inverting must
    # recover the measured swap time at PCIe 3.0 x16 bandwidth.
    assert profile.swap_ms == pytest.approx(
        profile.param_bytes / PCIE_BANDWIDTH_BYTES_PER_MS
    )


def test_table5_swap_times_recovered():
    swaps = {p.name: p.swap_ms for p in NLP_LAYER_TYPES + CV_LAYER_TYPES}
    assert swaps["conv3x1"] == pytest.approx(1.76, rel=1e-3)
    assert swaps["conv3x3"] == pytest.approx(4.6, rel=1e-3)
    assert swaps["lightconv5x1"] == pytest.approx(0.03, rel=1e-2)


def test_catalog_domain_lookup():
    assert catalog_for_domain("NLP") == NLP_LAYER_TYPES
    with pytest.raises(KeyError):
        catalog_for_domain("AUDIO")


# ----------------------------------------------------------------------
# search spaces (Table 1)
# ----------------------------------------------------------------------
def test_table1_registry():
    expected = {
        "NLP.c0": (48, 96),
        "NLP.c1": (48, 72),
        "NLP.c2": (48, 48),
        "NLP.c3": (48, 24),
        "CV.c1": (32, 48),
        "CV.c2": (32, 24),
        "CV.c3": (32, 12),
    }
    assert set(SEARCH_SPACES) == set(expected)
    for name, (blocks, choices) in expected.items():
        space = get_search_space(name)
        assert (space.num_blocks, space.choices_per_block) == (blocks, choices)
    assert list_search_spaces() == list(expected)


def test_space_architecture_count():
    space = get_search_space("NLP.c3").scaled(num_blocks=5, choices_per_block=4)
    assert space.architecture_count == 4**5
    assert space.num_blocks * space.choices_per_block == 20  # candidate layers


def test_space_validation():
    space = get_search_space("CV.c3")
    with pytest.raises(SearchSpaceError):
        validate_choices(space, [0] * (space.num_blocks - 1))
    with pytest.raises(SearchSpaceError):
        validate_choices(space, [space.choices_per_block] * space.num_blocks)
    validate_choices(space, [0] * space.num_blocks)


def test_unknown_space_raises():
    with pytest.raises(SearchSpaceError):
        get_search_space("NLP.c9")


# ----------------------------------------------------------------------
# subnets
# ----------------------------------------------------------------------
def test_subnet_layers_and_ranges():
    subnet = Subnet(3, (1, 0, 2, 2))
    assert tuple(subnet.layer_ids()) == ((0, 1), (1, 0), (2, 2), (3, 2))
    assert tuple(subnet.layers_in_range(1, 3)) == ((1, 0), (2, 2))
    # memoised views: repeat calls hand back the same interned tuples
    assert subnet.layer_ids() is subnet.layer_ids()
    assert subnet.layers_in_range(1, 3) is subnet.layers_in_range(1, 3)


def test_subnet_dependency_detection():
    a = Subnet(0, (1, 2, 3))
    b = Subnet(1, (1, 0, 0))
    c = Subnet(2, (0, 0, 0))
    assert depends_on(b, a)
    assert shared_layers(b, a) == [(0, 1)]
    assert not depends_on(c, a)
    assert shared_layers(c, a) == []


def test_subnet_mutate_and_with_id():
    subnet = Subnet(0, (1, 1, 1))
    mutated = subnet.mutate(1, 2)
    assert mutated.choices == (1, 2, 1)
    assert subnet.choices == (1, 1, 1)
    assert mutated.with_id(9).subnet_id == 9
    with pytest.raises(IndexError):
        subnet.mutate(5, 0)


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=12),
    st.lists(st.integers(0, 3), min_size=1, max_size=12),
)
def test_shared_layers_symmetric(choices_a, choices_b):
    size = min(len(choices_a), len(choices_b))
    a = Subnet(0, tuple(choices_a[:size]))
    b = Subnet(1, tuple(choices_b[:size]))
    assert set(shared_layers(a, b)) == set(shared_layers(b, a))
    assert depends_on(a, b) == depends_on(b, a)
    assert depends_on(a, a) or size == 0


# ----------------------------------------------------------------------
# supernet profiles
# ----------------------------------------------------------------------
def test_profiles_deterministic_and_cached(tiny_supernet):
    p1 = tiny_supernet.profile((0, 1))
    p2 = tiny_supernet.profile((0, 1))
    assert p1 is p2
    fresh = Supernet(tiny_supernet.space).profile((0, 1))
    assert fresh.size_scale == p1.size_scale
    assert fresh.param_count == p1.param_count


def test_profile_bounds(tiny_supernet):
    for choice in range(tiny_supernet.space.choices_per_block):
        profile = tiny_supernet.profile((0, choice))
        assert 0.75 <= profile.size_scale <= 1.25
        assert profile.fwd_ms_ref > 0
        assert profile.param_count > 0


def test_profile_range_checks(tiny_supernet):
    with pytest.raises(IndexError):
        tiny_supernet.profile((tiny_supernet.space.num_blocks, 0))
    with pytest.raises(IndexError):
        tiny_supernet.profile((0, tiny_supernet.space.choices_per_block))


def test_supernet_param_accounting(tiny_supernet):
    space = tiny_supernet.space
    total = tiny_supernet.total_param_count()
    assert total == sum(
        tiny_supernet.profile((b, c)).param_count
        for b in range(space.num_blocks)
        for c in range(space.choices_per_block)
    )
    subnet = Subnet(0, tuple([0] * space.num_blocks))
    assert tiny_supernet.subnet_param_count(subnet) < total
    expected = tiny_supernet.expected_subnet_param_count()
    assert 0 < expected < total


def test_nlp_c1_supernet_matches_paper_scale():
    """Table 2 reports the NLP.c1 supernet at 14.8 B parameters; our
    catalog-derived figure must land within 5%."""
    supernet = Supernet(get_search_space("NLP.c1"))
    assert supernet.total_param_count() == pytest.approx(14.8e9, rel=0.05)


def test_batch_time_scaling_law():
    supernet = Supernet(get_search_space("NLP.c1"))
    assert supernet.batch_time_scale(supernet.space.reference_batch) == 1.0
    assert supernet.batch_time_scale(32) < 1.0
    # Calibration anchor from the paper: t(192)/t(32) ~ 2.1 for NLP.
    ratio = supernet.batch_time_scale(192) / supernet.batch_time_scale(32)
    assert 1.8 < ratio < 2.4


def test_alu_efficiency_saturates():
    supernet = Supernet(get_search_space("CV.c1"))
    assert supernet.gpu_alu_efficiency(4) < supernet.gpu_alu_efficiency(64)
    assert supernet.gpu_alu_efficiency(10_000) < 1.0


def test_choice_block_accessor(tiny_supernet):
    block = tiny_supernet.choice_block(2)
    assert block.index == 2
    assert len(block) == tiny_supernet.space.choices_per_block


def test_subnet_encode_decode_roundtrip():
    subnet = Subnet(3, (1, 0, 2, 2))
    encoded = subnet.encode()
    assert encoded == "3:1-0-2-2"
    assert Subnet.decode(encoded) == subnet
    with pytest.raises(ValueError):
        Subnet.decode("not-a-subnet")
    with pytest.raises(ValueError):
        Subnet.decode("3:1-x-2")
