"""The optimizer step and weight factory as they were before a job's
seeded inputs were shared, as a reference.

Through commit ``01f98ff`` every :class:`~repro.engines.functional_plane.
FunctionalPlane` drew each layer's initial weights from its own seed tree
(``make_factory``), ``clip_gradients`` squared a float32 copy of every
gradient, each optimizer step allocated a fresh array per operation, and
the conv layer rebuilt its band mask on every call.  This module is that
code, copied verbatim (the two ``apply`` methods as functions of the
optimizer they were bound to), so ``tests/test_functional_reference.py``
can hold the rewritten step and the shared source to it byte for byte.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.init import layer_init_generator
from repro.seeding import SeedSequenceTree

_BAND_HALF_WIDTH = 2


def clip_gradients(grads, max_norm: float) -> Dict[str, np.ndarray]:
    total = np.float32(0.0)
    for array in grads.values():
        total += np.float32(np.sum(array.astype(np.float32) ** 2))
    norm = np.sqrt(total, dtype=np.float32)
    if norm <= max_norm:
        return {name: F.f32(array) for name, array in grads.items()}
    scale = np.float32(max_norm) / norm
    return {name: F.f32(array * scale) for name, array in grads.items()}


def sgd_apply(self, layer, params, grads) -> Dict[str, np.ndarray]:
    """``SGD.apply``."""
    if self.max_grad_norm is not None:
        grads = clip_gradients(grads, self.max_grad_norm)
    return {
        name: F.f32(params[name] - self.learning_rate * grads[name])
        for name in params
    }


def momentum_apply(self, layer, params, grads) -> Dict[str, np.ndarray]:
    """``MomentumSGD.apply``; reads and writes ``self._velocity``."""
    if self.max_grad_norm is not None:
        grads = clip_gradients(grads, self.max_grad_norm)
    updated = {}
    for name in params:
        key = (layer, name)
        velocity = self._velocity.get(key)
        if velocity is None:
            velocity = np.zeros_like(params[name])
        velocity = F.f32(self.momentum * velocity + grads[name])
        self._velocity[key] = velocity
        updated[name] = F.f32(params[name] - self.learning_rate * velocity)
    return updated


def _band_mask(width: int) -> np.ndarray:
    index = np.arange(width)
    return (np.abs(index[:, None] - index[None, :]) <= _BAND_HALF_WIDTH).astype(
        np.float32
    )


def make_factory(seeds: SeedSequenceTree, spec_for_layer, width: int):
    from repro.nn.layers import build_parameters

    def factory(layer: Tuple[int, int]) -> Dict[str, np.ndarray]:
        rng = layer_init_generator(seeds, layer)
        return build_parameters(spec_for_layer(layer), width, rng)

    return factory
