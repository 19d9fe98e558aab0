"""The batch a system trains at is solved from one budget, not searched.

Memory at batch ``b`` is exactly ``params + b × activation_bytes_per_sample``,
so ``repro.memory_model.max_feasible_batch`` takes the largest multiple of 4
under both that budget and the space's ``max_batch`` in one step.  These
tests hold it, and ``memory_breakdown``, to the batch-by-batch walk they
replaced (``memory_reference.py``, copied verbatim): every built-in space
with its block count scaled, the four baseline systems and two
``cache_subnets`` overrides, 1–16 GPUs and 1–40 GB per GPU, plus budgets
that land exactly on a batch and budgets too small for any.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import memory_reference
from repro.baselines import gpipe, naspipe, pipedream, vpipe
from repro.memory_model import (
    activation_bytes_per_sample,
    max_feasible_batch,
    memory_breakdown,
    resident_param_bytes_per_stage,
)
from repro.sim.cluster import ClusterSpec
from repro.supernet.search_space import get_search_space, list_search_spaces
from repro.supernet.supernet import Supernet

SYSTEMS = {
    "NASPipe": naspipe,
    "GPipe": gpipe,
    "PipeDream": pipedream,
    "VPipe": vpipe,
    "NASPipe cache 0.6": lambda: naspipe(cache_subnets=0.6),
    "VPipe cache 2.5": lambda: vpipe(cache_subnets=2.5),
}
_GB = 1_000_000_000


@lru_cache(maxsize=None)
def _supernet(space_name, num_blocks):
    return Supernet(get_search_space(space_name).scaled(num_blocks=num_blocks))


_CASES = st.tuples(
    st.sampled_from(list_search_spaces()),
    st.integers(1, 48),
    st.sampled_from(sorted(SYSTEMS)),
    st.integers(1, 16),
)


@settings(max_examples=300, deadline=None)
@given(case=_CASES, memory=st.integers(1 * _GB, 40 * _GB))
def test_the_solved_batch_is_the_searched_one(case, memory):
    space_name, num_blocks, system, gpus = case
    supernet, config = _supernet(space_name, num_blocks), SYSTEMS[system]()
    cluster = ClusterSpec(num_gpus=gpus, gpu_memory_bytes=memory)
    assert max_feasible_batch(supernet, config, cluster) == (
        memory_reference.max_feasible_batch(supernet, config, cluster)
    )


@settings(max_examples=300, deadline=None)
@given(case=_CASES, memory=st.integers(1 * _GB, 40 * _GB), batch=st.integers(0, 400))
def test_the_breakdown_is_params_plus_batch_times_per_sample(case, memory, batch):
    space_name, num_blocks, system, gpus = case
    supernet, config = _supernet(space_name, num_blocks), SYSTEMS[system]()
    cluster = ClusterSpec(num_gpus=gpus, gpu_memory_bytes=memory)
    breakdown = memory_breakdown(supernet, config, cluster, batch)
    assert breakdown == memory_reference.memory_breakdown(supernet, config, cluster, batch)
    assert breakdown.total == (
        resident_param_bytes_per_stage(supernet, config, gpus)
        + batch * activation_bytes_per_sample(supernet, config, gpus)
    )


# (samples the spare memory holds exactly, bytes short of that, answer):
# an exact fit is feasible, one byte short loses the whole sample, the
# answer rounds down to a multiple of 4, and max_batch caps it.
_EXACT = [
    (32, 0, 32),
    (32, 1, 28),
    (33, 0, 32),
    (35, 0, 32),
    (36, 0, 36),
    (4, 0, 4),
    (4, 1, None),
    (3, 0, None),
    (1, 0, None),
    (0, 0, None),
    (192, 0, 192),
    (500, 0, 192),
]


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("samples, short, answer", _EXACT)
def test_a_budget_that_lands_on_a_batch(system, samples, short, answer):
    supernet, config = _supernet("NLP.c3", 24), SYSTEMS[system]()
    reserved = ClusterSpec().reserved_bytes
    params = resident_param_bytes_per_stage(supernet, config, 4)
    per_sample = activation_bytes_per_sample(supernet, config, 4)
    memory = reserved + params + samples * per_sample - short
    cluster = ClusterSpec(num_gpus=4, gpu_memory_bytes=memory)
    assert max_feasible_batch(supernet, config, cluster) == answer
    assert memory_reference.max_feasible_batch(supernet, config, cluster) == answer


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_parameters_alone_overflowing_gives_none(system):
    supernet, config = _supernet("NLP.c0", 48), SYSTEMS[system]()
    reserved = ClusterSpec().reserved_bytes
    params = resident_param_bytes_per_stage(supernet, config, 2)
    cluster = ClusterSpec(num_gpus=2, gpu_memory_bytes=reserved + params - 1)
    assert max_feasible_batch(supernet, config, cluster) is None
    assert memory_reference.max_feasible_batch(supernet, config, cluster) is None
