"""Shared fixtures: small search spaces, seed trees, supernets."""

from __future__ import annotations

import pytest

from repro.seeding import SeedSequenceTree
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet


@pytest.fixture
def attrs_census():
    """``census(trace, kind)``: the ``kind`` rows' count, their distinct
    attrs objects and their distinct attrs values (by ``repr``)."""

    def census(trace, kind):
        rows = [
            attrs
            for each, attrs in zip(trace.events.kind, trace.events.attrs)
            if each == kind
        ]
        return len(rows), len({id(attrs) for attrs in rows}), len(set(map(repr, rows)))

    return census


@pytest.fixture
def seeds() -> SeedSequenceTree:
    return SeedSequenceTree(1234)


@pytest.fixture
def tiny_space():
    """A scaled NLP space small enough for exhaustive checks."""
    return get_search_space("NLP.c3").scaled(
        name="tiny", num_blocks=8, choices_per_block=4, functional_width=16
    )


@pytest.fixture
def small_space():
    """A mid-size space for functional pipeline tests."""
    return get_search_space("NLP.c2").scaled(
        name="small", num_blocks=16, functional_width=16
    )


@pytest.fixture
def cv_space():
    return get_search_space("CV.c2").scaled(
        name="small-cv", num_blocks=16, functional_width=16
    )


@pytest.fixture
def tiny_supernet(tiny_space) -> Supernet:
    return Supernet(tiny_space)


@pytest.fixture
def small_supernet(small_space) -> Supernet:
    return Supernet(small_space)
