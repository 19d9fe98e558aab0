"""The paper's central claims, as tests (Definition 1, Tables 3-4).

* CSP pipeline training is bitwise equivalent to sequential training on
  any number of GPUs (digest + every per-subnet loss).
* BSP and ASP produce different weights on different cluster sizes.
* Per-layer access orders (Table 4 strings) are preserved only by CSP.
* No schedule produced by the CSP engine ever violates Definition 2
  (checked from the functional access log).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import gpipe, naspipe, pipedream, ssp
from repro.engines.functional_plane import FunctionalPlane
from repro.engines.pipeline import PipelineEngine
from repro.engines.sequential import SequentialEngine
from repro.experiments.figure1 import count_violations
from repro.invariants import diverged, same_training
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet


def _functional_run(space, config, gpus, steps=24, seed=7):
    supernet = Supernet(space)
    seeds = SeedSequenceTree(seed)
    stream = SubnetStream.sample(space, seeds, steps)
    plane = FunctionalPlane(supernet, seeds, functional_batch=6)
    engine = PipelineEngine(
        supernet, stream, config, ClusterSpec(num_gpus=gpus), batch=32,
        functional=plane,
    )
    result = engine.run()
    return result, plane


def _sequential_run(space, steps=24, seed=7):
    supernet = Supernet(space)
    seeds = SeedSequenceTree(seed)
    stream = SubnetStream.sample(space, seeds, steps)
    plane = FunctionalPlane(supernet, seeds, functional_batch=6)
    return SequentialEngine(supernet, stream, plane, batch=32).run(), plane


@pytest.fixture(scope="module")
def repro_space():
    return get_search_space("NLP.c3").scaled(
        name="repro", num_blocks=12, choices_per_block=6, functional_width=16
    )


@pytest.fixture(scope="module")
def sequential_truth(repro_space):
    return _sequential_run(repro_space)[0]


@pytest.mark.parametrize("gpus", [1, 2, 4, 6])
def test_csp_bitwise_equals_sequential(repro_space, sequential_truth, gpus):
    result, _plane = _functional_run(repro_space, naspipe(), gpus)
    assert same_training(sequential_truth, result) == []


def test_csp_identical_across_gpu_counts(repro_space):
    digests = {
        gpus: _functional_run(repro_space, naspipe(), gpus)[0].digest
        for gpus in (2, 4, 6)
    }
    assert len(set(digests.values())) == 1


def test_bsp_differs_across_gpu_counts(repro_space, sequential_truth):
    d4 = _functional_run(repro_space, gpipe(), 4)[0].digest
    d6 = _functional_run(repro_space, gpipe(), 6)[0].digest
    assert d4 != d6
    assert d4 != sequential_truth.digest


def test_asp_differs_across_gpu_counts(repro_space, sequential_truth):
    d4 = _functional_run(repro_space, pipedream(), 4)[0].digest
    d6 = _functional_run(repro_space, pipedream(), 6)[0].digest
    assert d4 != d6
    assert d4 != sequential_truth.digest


def test_ssp_is_not_reproducible_either(repro_space):
    d4 = _functional_run(repro_space, ssp(4), 4)[0].digest
    d6 = _functional_run(repro_space, ssp(4), 6)[0].digest
    assert d4 != d6


def test_same_system_same_gpus_is_deterministic(repro_space):
    """Even non-CSP systems are deterministic per cluster size in the
    simulator — divergence appears only across cluster sizes, exactly
    the paper's Table 3 protocol."""
    a = _functional_run(repro_space, gpipe(), 4)[0].digest
    b = _functional_run(repro_space, gpipe(), 4)[0].digest
    assert a == b


def test_csp_preserves_per_layer_access_order(repro_space):
    _result4, plane4 = _functional_run(repro_space, naspipe(), 4)
    _result6, plane6 = _functional_run(repro_space, naspipe(), 6)
    shared = [
        layer
        for layer in plane4.store.materialized_layers
        if len(plane4.store.access_order(layer)) >= 4
    ]
    assert shared, "test needs at least one multi-subnet layer"
    for layer in shared[:10]:
        assert plane4.store.access_order_string(
            layer
        ) == plane6.store.access_order_string(layer)


def test_csp_schedule_never_violates_definition_2(repro_space):
    for gpus in (2, 4, 6):
        _result, plane = _functional_run(repro_space, naspipe(), gpus)
        assert count_violations(plane.store) == 0


def test_bsp_and_asp_do_violate(repro_space):
    _result, plane_bsp = _functional_run(repro_space, gpipe(), 6, steps=30)
    _result, plane_asp = _functional_run(repro_space, pipedream(), 6, steps=30)
    assert count_violations(plane_bsp.store) > 0
    assert count_violations(plane_asp.store) > 0


def test_same_training_flags_an_asp_run_against_sequential(
    repro_space, sequential_truth
):
    bad, _ = _functional_run(repro_space, pipedream(), 4)
    violations = same_training(sequential_truth, bad)
    assert diverged(violations, "digest") and diverged(violations, "losses")


@given(seed=st.integers(0, 10_000), gpus=st.sampled_from([2, 3, 4]))
@settings(max_examples=8, deadline=None)
def test_property_csp_equivalence_over_random_streams(seed, gpus):
    """Property: for random seeds and cluster sizes, CSP == sequential."""
    space = get_search_space("CV.c3").scaled(
        name=f"prop{seed}", num_blocks=8, functional_width=16
    )
    sequential, _ = _sequential_run(space, steps=12, seed=seed)
    pipelined, plane = _functional_run(
        space, naspipe(), gpus, steps=12, seed=seed
    )
    assert same_training(sequential, pipelined) == []
    assert count_violations(plane.store) == 0
