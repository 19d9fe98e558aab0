"""Stateless and stateful SGD update rules.

The optimizer is applied at WRITE time — when a subnet's backward pass
commits a layer update through the :class:`~repro.nn.parameter_store.
ParameterStore`.  Keeping the update rule a pure function of
``(params, grads, state)`` makes the functional plane's interleaving
semantics explicit: whoever applies updates in a different order gets
different float32 bits, which is exactly what the reproducibility
experiments measure.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.parameter_store import LayerId

__all__ = ["SGD", "MomentumSGD", "clip_gradients"]

Params = Mapping[str, np.ndarray]


def clip_gradients(
    grads: Params, max_norm: float
) -> Dict[str, np.ndarray]:
    """Scale a layer's gradients so their global L2 norm ≤ ``max_norm``.

    The clip factor is computed in float32 so clipping is itself
    deterministic and reorder-insensitive per layer.  Each square is
    ``g * g`` (what numpy evaluates ``g ** 2`` as) reduced by
    ``np.add.reduce`` (what ``np.sum`` dispatches to), so the bits are
    those of the plain spelling without its copies and wrappers.
    """
    total = np.float32(0.0)
    for array in grads.values():
        array = array.astype(np.float32, copy=False)
        total += np.add.reduce(array * array, axis=None)
    norm = np.sqrt(total, dtype=np.float32)
    if norm <= max_norm:
        return {name: F.f32(array) for name, array in grads.items()}
    scale = np.float32(max_norm) / norm
    return {name: F.f32(array * scale) for name, array in grads.items()}


def _positive_finite(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


class SGD:
    """Plain stochastic gradient descent: ``w -= lr * g``.

    ``max_grad_norm`` enables per-layer gradient clipping — cheap
    insurance against the loss spikes deep residual chains can produce
    at brisk learning rates.
    """

    def __init__(
        self, learning_rate: float = 0.05, max_grad_norm: float = None
    ) -> None:
        _positive_finite("learning rate", learning_rate)
        if max_grad_norm is not None:
            _positive_finite("max_grad_norm", max_grad_norm)
        self.learning_rate = np.float32(learning_rate)
        self.max_grad_norm = max_grad_norm

    def apply(
        self, layer: LayerId, params: Params, grads: Params
    ) -> Dict[str, np.ndarray]:
        """Return updated parameter arrays (inputs are not mutated)."""
        if self.max_grad_norm is not None:
            grads = clip_gradients(grads, self.max_grad_norm)
        updated = {}
        for name in params:
            step = np.multiply(self.learning_rate, grads[name])
            updated[name] = F.f32(np.subtract(params[name], step, out=step))
        return updated


class MomentumSGD:
    """SGD with classical momentum, velocity keyed by (layer, param name).

    Velocity state lives in the optimizer, mirroring how PyTorch keeps
    optimizer state out of the module parameters.  State is keyed by layer
    identity, so the same optimizer instance serves every subnet that
    shares a layer — shared state is itself part of the causal dependency.
    """

    def __init__(
        self,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        max_grad_norm: float = None,
    ) -> None:
        _positive_finite("learning rate", learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if max_grad_norm is not None:
            _positive_finite("max_grad_norm", max_grad_norm)
        self.learning_rate = np.float32(learning_rate)
        self.momentum = np.float32(momentum)
        self.max_grad_norm = max_grad_norm
        self._velocity: Dict[Tuple[LayerId, str], np.ndarray] = {}

    def apply(
        self, layer: LayerId, params: Params, grads: Params
    ) -> Dict[str, np.ndarray]:
        if self.max_grad_norm is not None:
            grads = clip_gradients(grads, self.max_grad_norm)
        updated = {}
        for name in params:
            key = (layer, name)
            # v' = momentum * v + g, then w - lr * v', each operation once:
            # the velocity is updated in its own buffer (checkpoints copy
            # it), the step is written into the product's buffer
            velocity = self._velocity.get(key)
            if velocity is None:
                # momentum * 0 is +0 for every momentum in [0, 1)
                velocity = np.zeros_like(params[name])
            else:
                np.multiply(self.momentum, velocity, out=velocity)
            velocity = F.f32(np.add(velocity, grads[name], out=velocity))
            self._velocity[key] = velocity
            step = np.multiply(self.learning_rate, velocity)
            updated[name] = np.subtract(params[name], step, out=step)
        return updated
