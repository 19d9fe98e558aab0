"""The candidate-layer zoo: distinct differentiable layer families.

The paper's search spaces draw candidates from the Evolved Transformer
(NLP) and AmoebaNet (CV) operator sets — convolutions of several shapes,
separable/light convolutions, attention, pooling-style branches.  The CSP
scheduler only needs layer *identity* and *cost profile*, but the
reproducibility experiments need layers that really compute and really
update weights, so this module implements a functional analogue of each
family over ``(batch, width)`` float32 activations:

============  =====================================================
name          functional form
============  =====================================================
``linear``    ``y = tanh(xW + b)``
``conv``      ``y = relu(x (W ⊙ band-mask) + b)`` — banded mixing, the
              analogue of a small-kernel convolution over channels
``sepconv``   ``y = relu((x ⊙ d) P + b)`` — depthwise scale then
              pointwise projection, like a separable convolution
``glu``       ``y = (xW + b) ⊙ sigmoid(xV + c)`` — gated linear unit,
              the light-convolution analogue
``attention`` ``y = softmax(xQ) V + x`` — content-based mixing with a
              residual path
``branch``    ``y = max(xW₁, xW₂) + b`` — two-branch max, the
              pooling/branching analogue
============  =====================================================

Every implementation provides ``build``, ``forward`` and ``backward``; the
backward returns gradients for the input *and* every parameter, verified
against numerical differentiation in the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

import numpy as np

from repro.errors import SearchSpaceError
from repro.nn import functional as F

__all__ = [
    "LayerImplementation",
    "LAYER_IMPLEMENTATIONS",
    "build_parameters",
    "layer_forward",
    "layer_backward",
]

Params = Dict[str, np.ndarray]
Grads = Dict[str, np.ndarray]
Cache = Tuple[Any, ...]


@dataclass(frozen=True)
class LayerImplementation:
    """Bundle of build/forward/backward callables for one layer family."""

    name: str
    build: Callable[[int, np.random.Generator], Params]
    forward: Callable[[np.ndarray, Params], Tuple[np.ndarray, Cache]]
    backward: Callable[[np.ndarray, Cache, Params], Tuple[np.ndarray, Grads]]


# ----------------------------------------------------------------------
# linear
# ----------------------------------------------------------------------
def _linear_build(width: int, rng: np.random.Generator) -> Params:
    from repro.nn.init import glorot, zeros

    return {"weight": glorot(rng, width, width), "bias": zeros(width)}


def _linear_forward(x: np.ndarray, params: Params) -> Tuple[np.ndarray, Cache]:
    pre, affine_cache = F.affine_forward(x, params["weight"], params["bias"])
    y, tanh_cache = F.tanh_forward(pre)
    return y, (affine_cache, tanh_cache)


def _linear_backward(
    dy: np.ndarray, cache: Cache, params: Params
) -> Tuple[np.ndarray, Grads]:
    affine_cache, tanh_cache = cache
    dpre = F.tanh_backward(dy, tanh_cache)
    dx, dw, db = F.affine_backward(dpre, affine_cache)
    return dx, {"weight": dw, "bias": db}


# ----------------------------------------------------------------------
# conv (banded mixing)
# ----------------------------------------------------------------------
_BAND_HALF_WIDTH = 2


@functools.lru_cache(maxsize=None)
def _band_mask(width: int) -> np.ndarray:
    """The conv band of ``width`` — a constant, built once and read-only."""
    index = np.arange(width)
    mask = (np.abs(index[:, None] - index[None, :]) <= _BAND_HALF_WIDTH).astype(
        np.float32
    )
    mask.flags.writeable = False
    return mask


def _conv_build(width: int, rng: np.random.Generator) -> Params:
    from repro.nn.init import glorot, zeros

    return {"weight": glorot(rng, width, width), "bias": zeros(width)}


def _conv_forward(x: np.ndarray, params: Params) -> Tuple[np.ndarray, Cache]:
    mask = _band_mask(params["weight"].shape[0])
    banded = F.f32(params["weight"] * mask)
    pre, _ = F.affine_forward(x, banded, params["bias"])
    y, relu_cache = F.relu_forward(pre)
    return y, (x, banded, mask, relu_cache)


def _conv_backward(
    dy: np.ndarray, cache: Cache, params: Params
) -> Tuple[np.ndarray, Grads]:
    x, banded, mask, relu_cache = cache
    dpre = F.relu_backward(dy, relu_cache)
    dx = F.f32(dpre @ banded.T)
    dw = F.f32((x.T @ dpre) * mask)
    db = F.f32(dpre.sum(axis=0))
    return dx, {"weight": dw, "bias": db}


# ----------------------------------------------------------------------
# sepconv (depthwise scale + pointwise projection)
# ----------------------------------------------------------------------
def _sepconv_build(width: int, rng: np.random.Generator) -> Params:
    from repro.nn.init import glorot, ones_like_scale, zeros

    return {
        "depthwise": ones_like_scale(rng, width),
        "pointwise": glorot(rng, width, width),
        "bias": zeros(width),
    }


def _sepconv_forward(x: np.ndarray, params: Params) -> Tuple[np.ndarray, Cache]:
    scaled = F.f32(x * params["depthwise"])
    pre, _ = F.affine_forward(scaled, params["pointwise"], params["bias"])
    y, relu_cache = F.relu_forward(pre)
    return y, (x, scaled, relu_cache)


def _sepconv_backward(
    dy: np.ndarray, cache: Cache, params: Params
) -> Tuple[np.ndarray, Grads]:
    x, scaled, relu_cache = cache
    dpre = F.relu_backward(dy, relu_cache)
    dscaled = F.f32(dpre @ params["pointwise"].T)
    dpointwise = F.f32(scaled.T @ dpre)
    dbias = F.f32(dpre.sum(axis=0))
    ddepthwise = F.f32((dscaled * x).sum(axis=0))
    dx = F.f32(dscaled * params["depthwise"])
    return dx, {"depthwise": ddepthwise, "pointwise": dpointwise, "bias": dbias}


# ----------------------------------------------------------------------
# glu (gated linear unit)
# ----------------------------------------------------------------------
def _glu_build(width: int, rng: np.random.Generator) -> Params:
    from repro.nn.init import glorot, zeros

    return {
        "weight": glorot(rng, width, width),
        "bias": zeros(width),
        "gate_weight": glorot(rng, width, width),
        "gate_bias": zeros(width),
    }


def _glu_forward(x: np.ndarray, params: Params) -> Tuple[np.ndarray, Cache]:
    value = F.f32(x @ params["weight"] + params["bias"])
    gate = F.sigmoid(x @ params["gate_weight"] + params["gate_bias"])
    y = F.f32(value * gate)
    return y, (x, value, gate)


def _glu_backward(
    dy: np.ndarray, cache: Cache, params: Params
) -> Tuple[np.ndarray, Grads]:
    x, value, gate = cache
    dvalue = F.f32(dy * gate)
    dgate = F.f32(dy * value)
    dgate_pre = F.f32(dgate * gate * (1.0 - gate))
    dx = F.f32(dvalue @ params["weight"].T + dgate_pre @ params["gate_weight"].T)
    grads = {
        "weight": F.f32(x.T @ dvalue),
        "bias": F.f32(dvalue.sum(axis=0)),
        "gate_weight": F.f32(x.T @ dgate_pre),
        "gate_bias": F.f32(dgate_pre.sum(axis=0)),
    }
    return dx, grads


# ----------------------------------------------------------------------
# attention (content-based mixing + residual)
# ----------------------------------------------------------------------
_ATTENTION_RANK_DIVISOR = 2


def _attention_build(width: int, rng: np.random.Generator) -> Params:
    from repro.nn.init import glorot

    rank = max(2, width // _ATTENTION_RANK_DIVISOR)
    return {
        "query": glorot(rng, width, rank),
        "value": glorot(rng, rank, width),
    }


def _attention_forward(x: np.ndarray, params: Params) -> Tuple[np.ndarray, Cache]:
    scores = F.f32(x @ params["query"])
    attention = F.softmax_rows(scores)
    y = F.f32(attention @ params["value"] + x)
    return y, (x, attention)


def _attention_backward(
    dy: np.ndarray, cache: Cache, params: Params
) -> Tuple[np.ndarray, Grads]:
    x, attention = cache
    dvalue = F.f32(attention.T @ dy)
    dattention = F.f32(dy @ params["value"].T)
    dscores = F.softmax_rows_backward(dattention, attention)
    dquery = F.f32(x.T @ dscores)
    dx = F.f32(dscores @ params["query"].T + dy)
    return dx, {"query": dquery, "value": dvalue}


# ----------------------------------------------------------------------
# branch (two-branch elementwise max)
# ----------------------------------------------------------------------
def _branch_build(width: int, rng: np.random.Generator) -> Params:
    from repro.nn.init import glorot, zeros

    return {
        "left": glorot(rng, width, width),
        "right": glorot(rng, width, width),
        "bias": zeros(width),
    }


def _branch_forward(x: np.ndarray, params: Params) -> Tuple[np.ndarray, Cache]:
    left = F.f32(x @ params["left"])
    right = F.f32(x @ params["right"])
    chose_left = left >= right
    y = F.f32(np.where(chose_left, left, right) + params["bias"])
    return y, (x, chose_left)


def _branch_backward(
    dy: np.ndarray, cache: Cache, params: Params
) -> Tuple[np.ndarray, Grads]:
    x, chose_left = cache
    dleft_out = F.f32(dy * chose_left)
    dright_out = F.f32(dy * ~chose_left)
    dx = F.f32(dleft_out @ params["left"].T + dright_out @ params["right"].T)
    grads = {
        "left": F.f32(x.T @ dleft_out),
        "right": F.f32(x.T @ dright_out),
        "bias": F.f32(dy.sum(axis=0)),
    }
    return dx, grads


# ----------------------------------------------------------------------
# identity (the NAS skip-connection candidate: no parameters, y = x)
# ----------------------------------------------------------------------
def _identity_build(width: int, rng: np.random.Generator) -> Params:
    # A zero-size marker parameter keeps the store's bookkeeping uniform
    # (every layer has at least one array; this one carries no state).
    return {"marker": np.zeros(0, dtype=np.float32)}


def _identity_forward(x: np.ndarray, params: Params) -> Tuple[np.ndarray, Cache]:
    return x, ()


def _identity_backward(
    dy: np.ndarray, cache: Cache, params: Params
) -> Tuple[np.ndarray, Grads]:
    return dy, {"marker": np.zeros(0, dtype=np.float32)}


# ----------------------------------------------------------------------
# ffn (two-layer MLP with expansion, the transformer feed-forward block)
# ----------------------------------------------------------------------
_FFN_EXPANSION = 2


def _ffn_build(width: int, rng: np.random.Generator) -> Params:
    from repro.nn.init import glorot, zeros

    hidden = width * _FFN_EXPANSION
    return {
        "up": glorot(rng, width, hidden),
        "up_bias": zeros(hidden),
        "down": glorot(rng, hidden, width),
        "down_bias": zeros(width),
    }


def _ffn_forward(x: np.ndarray, params: Params) -> Tuple[np.ndarray, Cache]:
    pre, _ = F.affine_forward(x, params["up"], params["up_bias"])
    hidden, relu_cache = F.relu_forward(pre)
    y, _ = F.affine_forward(hidden, params["down"], params["down_bias"])
    return y, (x, hidden, relu_cache)


def _ffn_backward(
    dy: np.ndarray, cache: Cache, params: Params
) -> Tuple[np.ndarray, Grads]:
    x, hidden, relu_cache = cache
    dhidden = F.f32(dy @ params["down"].T)
    ddown = F.f32(hidden.T @ dy)
    ddown_bias = F.f32(dy.sum(axis=0))
    dpre = F.relu_backward(dhidden, relu_cache)
    dup = F.f32(x.T @ dpre)
    dup_bias = F.f32(dpre.sum(axis=0))
    dx = F.f32(dpre @ params["up"].T)
    return dx, {
        "up": dup,
        "up_bias": dup_bias,
        "down": ddown,
        "down_bias": ddown_bias,
    }


# ----------------------------------------------------------------------
# normlinear (RMS-normalised linear — the layernorm-ish candidate)
# ----------------------------------------------------------------------
_NORM_EPS = np.float32(1e-5)


def _normlinear_build(width: int, rng: np.random.Generator) -> Params:
    from repro.nn.init import glorot, ones_like_scale

    return {"gain": ones_like_scale(rng, width), "weight": glorot(rng, width, width)}


def _normlinear_forward(x: np.ndarray, params: Params) -> Tuple[np.ndarray, Cache]:
    rms = np.sqrt((x * x).mean(axis=1, keepdims=True) + _NORM_EPS).astype(np.float32)
    normed = F.f32(x / rms)
    scaled = F.f32(normed * params["gain"])
    y = F.f32(scaled @ params["weight"])
    return y, (x, rms, normed)


def _normlinear_backward(
    dy: np.ndarray, cache: Cache, params: Params
) -> Tuple[np.ndarray, Grads]:
    x, rms, normed = cache
    width = x.shape[1]
    dscaled = F.f32(dy @ params["weight"].T)
    dweight = F.f32((normed * params["gain"]).T @ dy)
    dgain = F.f32((dscaled * normed).sum(axis=0))
    dnormed = F.f32(dscaled * params["gain"])
    # d(x / rms): rms depends on every element of the row.
    dot = (dnormed * x).sum(axis=1, keepdims=True)
    dx = F.f32(dnormed / rms - x * dot / (width * rms**3))
    return dx, {"gain": dgain, "weight": dweight}


LAYER_IMPLEMENTATIONS: Dict[str, LayerImplementation] = {
    impl.name: impl
    for impl in (
        LayerImplementation("linear", _linear_build, _linear_forward, _linear_backward),
        LayerImplementation("conv", _conv_build, _conv_forward, _conv_backward),
        LayerImplementation(
            "sepconv", _sepconv_build, _sepconv_forward, _sepconv_backward
        ),
        LayerImplementation("glu", _glu_build, _glu_forward, _glu_backward),
        LayerImplementation(
            "attention", _attention_build, _attention_forward, _attention_backward
        ),
        LayerImplementation("branch", _branch_build, _branch_forward, _branch_backward),
        LayerImplementation(
            "identity", _identity_build, _identity_forward, _identity_backward
        ),
        LayerImplementation("ffn", _ffn_build, _ffn_forward, _ffn_backward),
        LayerImplementation(
            "normlinear",
            _normlinear_build,
            _normlinear_forward,
            _normlinear_backward,
        ),
    )
}


def _implementation(name: str) -> LayerImplementation:
    try:
        return LAYER_IMPLEMENTATIONS[name]
    except KeyError:
        raise SearchSpaceError(
            f"unknown layer implementation {name!r}; "
            f"known: {sorted(LAYER_IMPLEMENTATIONS)}"
        ) from None


def build_parameters(name: str, width: int, rng: np.random.Generator) -> Params:
    """Create fresh parameters for layer family ``name`` at ``width``."""
    return _implementation(name).build(width, rng)


def layer_forward(
    name: str, x: np.ndarray, params: Params
) -> Tuple[np.ndarray, Cache]:
    """Run family ``name``'s forward; returns ``(output, cache)``."""
    return _implementation(name).forward(x, params)


def layer_backward(
    name: str, dy: np.ndarray, cache: Cache, params: Params
) -> Tuple[np.ndarray, Grads]:
    """Run family ``name``'s backward; returns ``(dx, parameter grads)``."""
    return _implementation(name).backward(dy, cache, params)
