"""Deterministic weight initialisation.

Each layer's parameters are initialised from a generator derived purely
from the layer's identity ``(block, choice)`` and the experiment's root
seed — never from materialisation order — so lazily creating layers in any
order yields identical weights.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.seeding import SeedSequenceTree

__all__ = ["layer_init_generator", "glorot", "zeros", "ones_like_scale"]


def layer_init_generator(
    seeds: SeedSequenceTree, layer: Tuple[int, int]
) -> np.random.Generator:
    """A pristine generator dedicated to initialising ``layer``."""
    block, choice = layer
    return seeds.fresh_generator(f"init/block{block}/choice{choice}")


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation as float32."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)


def zeros(*shape: int) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones_like_scale(rng: np.random.Generator, size: int) -> np.ndarray:
    """A near-one multiplicative scale vector (for depthwise components)."""
    return (1.0 + 0.1 * rng.standard_normal(size)).astype(np.float32)
