"""Optimizer and loss tests."""

import numpy as np
import pytest

from repro.nn.loss import cross_entropy_with_logits, softmax
from repro.nn.optim import SGD, MomentumSGD


def test_sgd_basic_step():
    params = {"w": np.ones(3, np.float32)}
    grads = {"w": np.full(3, 2.0, np.float32)}
    updated = SGD(0.5).apply((0, 0), params, grads)
    assert np.allclose(updated["w"], 0.0)
    # inputs untouched
    assert np.allclose(params["w"], 1.0)


def test_sgd_rejects_bad_lr():
    with pytest.raises(ValueError):
        SGD(0.0)
    with pytest.raises(ValueError):
        MomentumSGD(momentum=1.0)


def test_momentum_accumulates_velocity():
    opt = MomentumSGD(learning_rate=1.0, momentum=0.5)
    params = {"w": np.zeros(1, np.float32)}
    grads = {"w": np.ones(1, np.float32)}
    p1 = opt.apply((0, 0), params, grads)
    # v1 = 1 -> w = -1
    assert np.allclose(p1["w"], -1.0)
    p2 = opt.apply((0, 0), p1, grads)
    # v2 = 0.5*1 + 1 = 1.5 -> w = -2.5
    assert np.allclose(p2["w"], -2.5)


def test_momentum_state_keyed_per_layer():
    opt = MomentumSGD(learning_rate=1.0, momentum=0.9)
    params = {"w": np.zeros(1, np.float32)}
    grads = {"w": np.ones(1, np.float32)}
    opt.apply((0, 0), params, grads)
    # A different layer starts from zero velocity.
    fresh = opt.apply((1, 0), params, grads)
    assert np.allclose(fresh["w"], -1.0)


def test_momentum_layerwise_commit_order_invariance():
    """Committing two different layers in either order yields identical
    bits — the property that lets CSP commit per-stage without changing
    the sequential result."""
    def run(order):
        opt = MomentumSGD(0.3, 0.9)
        state = {
            (0, 0): {"w": np.ones(2, np.float32)},
            (1, 0): {"w": np.full(2, 2.0, np.float32)},
        }
        grads = {"w": np.full(2, 0.5, np.float32)}
        for layer in order:
            state[layer] = opt.apply(layer, state[layer], grads)
        return state

    a = run([(0, 0), (1, 0)])
    b = run([(1, 0), (0, 0)])
    for layer in a:
        assert np.array_equal(a[layer]["w"], b[layer]["w"])


def test_updates_stay_float32():
    opt = MomentumSGD(0.3, 0.9)
    params = {"w": np.ones(4, np.float32)}
    grads = {"w": np.full(4, 0.1, np.float32)}
    for _ in range(5):
        params = opt.apply((0, 0), params, grads)
        assert params["w"].dtype == np.float32


# ----------------------------------------------------------------------
# loss
# ----------------------------------------------------------------------
def test_softmax_rows_sum_to_one():
    rng = np.random.Generator(np.random.PCG64(3))
    logits = rng.standard_normal((5, 7)).astype(np.float32) * 10
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)
    assert (probs >= 0).all()


def test_cross_entropy_perfect_prediction_near_zero():
    logits = np.full((2, 4), -20.0, np.float32)
    logits[0, 1] = 20.0
    logits[1, 2] = 20.0
    loss, grad = cross_entropy_with_logits(logits, np.array([1, 2]))
    assert loss < 1e-4
    assert grad.shape == logits.shape


def test_cross_entropy_uniform_is_log_classes():
    logits = np.zeros((3, 8), np.float32)
    loss, _ = cross_entropy_with_logits(logits, np.array([0, 1, 2]))
    assert np.isclose(loss, np.log(8), atol=1e-5)


def test_cross_entropy_gradient_numerical():
    rng = np.random.Generator(np.random.PCG64(5))
    logits = rng.standard_normal((4, 6)).astype(np.float32)
    targets = np.array([0, 2, 5, 3])
    _loss, grad = cross_entropy_with_logits(logits, targets)
    eps = 1e-3
    for i in range(4):
        for j in range(6):
            original = logits[i, j]
            logits[i, j] = original + eps
            up, _ = cross_entropy_with_logits(logits, targets)
            logits[i, j] = original - eps
            down, _ = cross_entropy_with_logits(logits, targets)
            logits[i, j] = original
            numeric = (float(up) - float(down)) / (2 * eps)
            assert abs(numeric - grad[i, j]) < 5e-3


def test_cross_entropy_rejects_bad_shape():
    with pytest.raises(ValueError):
        cross_entropy_with_logits(np.zeros(3, np.float32), np.array([0]))


# ----------------------------------------------------------------------
# gradient clipping
# ----------------------------------------------------------------------
def test_clip_gradients_noop_under_norm():
    from repro.nn.optim import clip_gradients

    grads = {"w": np.full(4, 0.1, np.float32)}
    clipped = clip_gradients(grads, max_norm=10.0)
    assert np.array_equal(clipped["w"], grads["w"])


def test_clip_gradients_scales_to_norm():
    from repro.nn.optim import clip_gradients

    grads = {"w": np.full(4, 3.0, np.float32), "b": np.full(4, 4.0, np.float32)}
    clipped = clip_gradients(grads, max_norm=1.0)
    total = sum(float((g.astype(np.float64) ** 2).sum()) for g in clipped.values())
    assert np.sqrt(total) == pytest.approx(1.0, rel=1e-4)
    # Direction preserved.
    assert clipped["b"][0] / clipped["w"][0] == pytest.approx(4.0 / 3.0, rel=1e-4)


def test_optimizers_apply_clipping():
    big = {"w": np.full(2, 1e6, np.float32)}
    params = {"w": np.zeros(2, np.float32)}
    clipped = SGD(1.0, max_grad_norm=1.0).apply((0, 0), params, big)
    assert np.abs(clipped["w"]).max() <= 1.0
    clipped_m = MomentumSGD(1.0, 0.0, max_grad_norm=1.0).apply((0, 0), params, big)
    assert np.abs(clipped_m["w"]).max() <= 1.0


def test_clip_validation():
    with pytest.raises(ValueError):
        SGD(0.1, max_grad_norm=0.0)
    with pytest.raises(ValueError):
        MomentumSGD(0.1, 0.9, max_grad_norm=-1.0)


@pytest.mark.parametrize("make", [SGD, lambda lr: MomentumSGD(lr, 0.9)])
@pytest.mark.parametrize("rate", [-1.0, 0.0, float("nan"), float("inf"), -float("inf")])
def test_learning_rate_must_be_positive_and_finite(make, rate):
    # at the parent MomentumSGD(-1.0, 0.9) trained by gradient ascent and
    # both optimizers took NaN / inf
    with pytest.raises(ValueError, match="learning rate must be positive and finite"):
        make(rate)


@pytest.mark.parametrize("make", [SGD, lambda lr, max_grad_norm: MomentumSGD(lr, 0.9, max_grad_norm)])
@pytest.mark.parametrize("norm", [-1.0, 0.0, float("nan"), float("inf")])
def test_max_grad_norm_must_be_positive_and_finite(make, norm):
    # at the parent a NaN bound passed (nan <= 0 is False) and turned
    # every clipped weight into NaN
    with pytest.raises(ValueError, match="max_grad_norm must be positive and finite"):
        make(0.1, max_grad_norm=norm)


@pytest.mark.parametrize(
    "knob", [{"learning_rate": -1.0}, {"learning_rate": float("nan")}, {"max_grad_norm": float("nan")}]
)
def test_a_manifest_with_a_bad_step_is_refused(knob):
    from repro.replay import _build_manifest, execute_manifest

    manifest = _build_manifest(
        "NLP.c3", "NASPipe", space_overrides={"num_blocks": 4, "functional_width": 8},
        num_gpus=2, steps=2, **knob,
    )
    with pytest.raises(ValueError, match="must be positive and finite"):
        execute_manifest(manifest)
