"""The optimizer step and a job's shared seeded inputs keep every bit.

``clip_gradients`` and both optimizers compute each array operation once
(no float32 copy, ufunc ``out=`` buffers), the conv band mask is built once
per width, and the planes of one job start from one
:class:`~repro.engines.functional_plane.SeededInputs` instead of each
drawing its own weights and batches.  These tests hold all of it to the
code it replaced (``functional_reference.py``, copied verbatim): drawn
float32 gradients with zeros, subnormals, huge magnitudes and a norm
exactly at the clip bound, several steps of velocity state, and whole
training runs over drawn spaces, systems and GPU counts.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import functional_reference as ref
from repro.baselines import gpipe, naspipe, pipedream
from repro.engines.functional_plane import FunctionalPlane
from repro.errors import GpuOutOfMemoryError
from repro.ft.recovery import JobMemo, run_uninterrupted
from repro.nn.layers import _band_mask
from repro.nn.optim import SGD, MomentumSGD, clip_gradients
from repro.seeding import SeedSequenceTree
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

_TINY = float(np.float32(1e-38))
_FLOATS = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(-_TINY, _TINY, width=32),  # subnormal and tiny normal
    st.floats(-1e3, 1e3, width=32),
    st.floats(width=32, allow_nan=False, allow_infinity=False),  # to ±3.4e38
)
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6)


@st.composite
def _grad_steps(draw, max_steps=1):
    """Gradients of one layer for 1–``max_steps`` steps: 1–3 named float32
    arrays, each name keeping its drawn shape across steps."""
    names = draw(st.lists(st.sampled_from("wbgvq"), min_size=1, max_size=3, unique=True))
    shapes = {name: draw(_SHAPES) for name in names}
    return [
        {
            name: draw(hnp.arrays(np.float32, shape, elements=_FLOATS))
            for name, shape in shapes.items()
        }
        for _ in range(draw(st.integers(1, max_steps)))
    ]


def _grads():
    return _grad_steps().map(lambda steps: steps[0])


_NORMS = st.floats(1e-30, 1e30, allow_nan=False, allow_infinity=False)


def _same(a, b):
    assert set(a) == set(b)
    for name in a:
        assert (a[name].dtype, a[name].shape) == (b[name].dtype, b[name].shape), name
        assert a[name].tobytes() == b[name].tobytes(), name


def _copy(arrays):
    return {name: array.copy() for name, array in arrays.items()}


# ----------------------------------------------------------------------
# the step
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(grads=_grads(), max_norm=_NORMS, at_norm=st.booleans())
def test_clipping_is_the_reference_clip(grads, max_norm, at_norm):
    with np.errstate(all="ignore"):
        if at_norm:  # the bound lands exactly on the norm: no scaling
            total = np.float32(0.0)
            for array in grads.values():
                total += np.float32(np.sum(array.astype(np.float32) ** 2))
            max_norm = float(np.sqrt(total, dtype=np.float32))
        before = _copy(grads)
        expected = ref.clip_gradients(grads, max_norm)
        _same(clip_gradients(grads, max_norm), expected)
    _same(grads, before)


def _params_like(grads, draw_value):
    return {
        name: np.full(array.shape, draw_value, np.float32)
        for name, array in grads.items()
    }


@settings(max_examples=200, deadline=None)
@given(
    steps=_grad_steps(max_steps=4),
    start=st.floats(-10, 10, width=32),
    learning_rate=st.floats(1e-4, 10.0),
    momentum=st.floats(0.0, 0.99),
    max_norm=st.one_of(st.none(), _NORMS),
)
def test_momentum_steps_are_the_reference_steps(
    steps, start, learning_rate, momentum, max_norm
):
    new = MomentumSGD(learning_rate, momentum, max_norm)
    old = MomentumSGD(learning_rate, momentum, max_norm)
    params = expected = _params_like(steps[0], start)
    with np.errstate(all="ignore"):
        for grads in steps:
            before = _copy(params), _copy(grads)
            updated = new.apply((0, 0), params, grads)
            expected = ref.momentum_apply(old, (0, 0), expected, grads)
            _same(updated, expected)
            _same(params, before[0])
            _same(grads, before[1])
            assert new._velocity.keys() == old._velocity.keys()
            for key in new._velocity:
                _same({"v": new._velocity[key]}, {"v": old._velocity[key]})
            params = updated


@settings(max_examples=200, deadline=None)
@given(
    grads=_grads(),
    start=st.floats(-10, 10, width=32),
    learning_rate=st.floats(1e-4, 10.0),
    max_norm=st.one_of(st.none(), _NORMS),
)
def test_sgd_step_is_the_reference_step(grads, start, learning_rate, max_norm):
    optimizer = SGD(learning_rate, max_norm)
    params = _params_like(grads, start)
    before = _copy(params), _copy(grads)
    with np.errstate(all="ignore"):
        expected = ref.sgd_apply(optimizer, (0, 0), params, grads)
        _same(optimizer.apply((0, 0), params, grads), expected)
    _same(params, before[0])
    _same(grads, before[1])


def test_float64_gradients_round_like_the_reference():
    rng = np.random.default_rng(3)
    params = {"w": rng.standard_normal((4, 4)).astype(np.float32)}
    grads = {"w": rng.standard_normal((4, 4))}  # float64
    for make in (lambda: SGD(0.3), lambda: MomentumSGD(0.3, 0.9)):
        new, old = make(), make()
        apply_old = ref.sgd_apply if isinstance(old, SGD) else ref.momentum_apply
        _same(new.apply((0, 0), params, grads), apply_old(old, (0, 0), params, grads))


@pytest.mark.parametrize("width", range(1, 65))
def test_band_mask_is_the_reference_mask_built_once(width):
    mask = _band_mask(width)
    _same({"m": mask}, {"m": ref._band_mask(width)})
    assert _band_mask(width) is mask
    with pytest.raises(ValueError):
        mask[0, 0] = 0.0


# ----------------------------------------------------------------------
# the seeded inputs
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _space(name, num_blocks, width):
    return get_search_space(name).scaled(num_blocks=num_blocks, functional_width=width)


_SPACES = st.tuples(
    st.sampled_from(["NLP.c3", "CV.c3", "NLP.c2"]),
    st.integers(2, 12),
    st.sampled_from([8, 16]),
)


@settings(max_examples=40, deadline=None)
@given(space=_SPACES, seed=st.integers(0, 2**32), data=st.data())
def test_a_plane_starts_from_the_reference_weights(space, seed, data):
    space = _space(*space)
    supernet = Supernet(space)
    factory = ref.make_factory(
        SeedSequenceTree(seed), supernet.impl_for, space.functional_width
    )
    memo = JobMemo()
    inputs = memo.inputs(space, seed, 8)
    planes = [
        FunctionalPlane(Supernet(space), SeedSequenceTree(seed), inputs=inputs)
        for _ in range(2)
    ] + [FunctionalPlane(Supernet(space), SeedSequenceTree(seed))]
    layers = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, space.num_blocks - 1),
                st.integers(0, space.choices_per_block - 1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    for layer in layers:
        expected = factory(layer)
        for plane in planes:
            params = plane.store.materialize(layer)
            _same(params, expected)
            for array in params.values():
                assert array.flags.writeable  # the store trains its own copy
        pristine = inputs.weights(layer, supernet.impl_for(layer))
        assert all(not array.flags.writeable for array in pristine.values())
        assert not any(
            np.shares_memory(array, plane.store.materialize(layer)[name])
            for plane in planes
            for name, array in pristine.items()
        )


_SYSTEMS = {"NASPipe": naspipe, "PipeDream": pipedream, "GPipe": gpipe}


@settings(max_examples=12, deadline=None)
@given(
    space=_SPACES,
    system=st.sampled_from(sorted(_SYSTEMS)),
    gpus=st.integers(1, 8),
    steps=st.integers(2, 10),
    seed=st.integers(0, 2**16),
)
def test_runs_sharing_a_source_train_the_same_bits(space, system, gpus, steps, seed):
    space = _space(*space)
    gpus = min(gpus, space.num_blocks)
    run = dict(num_gpus=gpus, steps=steps, seed=seed)
    config = _SYSTEMS[system]()
    memo = JobMemo()
    try:
        alone = run_uninterrupted(space, config, **run)
    except GpuOutOfMemoryError as solo:
        # the memory model refuses some draws (GPipe holds the whole
        # supernet): a run sharing a source is refused on the same terms
        for _ in range(2):
            with pytest.raises(GpuOutOfMemoryError) as shared:
                run_uninterrupted(space, config, memo=memo, **run)
            assert (shared.value.requested, shared.value.available) == (
                solo.requested,
                solo.available,
            )
        return
    # the second run starts from the source the first one trained beside
    shared = [run_uninterrupted(space, config, memo=memo, **run) for _ in range(2)]
    for result in shared:
        assert result.digest == alone.digest
        assert result.losses == alone.losses
    inputs = memo.inputs(space, seed, 8)
    assert len(memo._inputs) == 1
    features, targets = inputs.batch(0)
    layer = next(iter(inputs._weights))
    with pytest.raises(ValueError):
        features[...] = 0.0
    with pytest.raises(ValueError):
        targets[0] = 1
    for array in inputs._weights[layer].values():
        with pytest.raises(ValueError):
            array[...] = 0.0
    with pytest.raises(ValueError):
        inputs.data.teacher[0, 0] = 0.0


def test_a_source_for_another_job_is_refused():
    space = _space("NLP.c3", 4, 16)
    inputs = JobMemo().inputs(space, 7, 8)
    for seed, batch, other in ((8, 8, space), (7, 4, space), (7, 8, _space("CV.c3", 4, 16))):
        with pytest.raises(ValueError, match="another job"):
            FunctionalPlane(
                Supernet(other), SeedSequenceTree(seed), functional_batch=batch, inputs=inputs
            )
