"""Layer profiling harness (paper §3.2).

NASPipe's balanced partitioner and context predictor both rest on
pre-profiled per-layer statistics.  The paper profiles CUDA kernels; this
harness profiles the *functional plane's* layer implementations with real
wall-clock timing, then packages the measurements as
:class:`~repro.supernet.catalog.LayerTypeProfile` objects usable by a
custom search space (:mod:`repro.supernet.builder`).

Profiling real kernels would be non-deterministic; the default experiment
pipeline therefore uses the paper-anchored catalog, and this harness is
the extension point for users bringing their own layers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.nn.layers import LAYER_IMPLEMENTATIONS, build_parameters, layer_backward, layer_forward
from repro.supernet.catalog import LayerTypeProfile

__all__ = [
    "LayerMeasurement",
    "profile_layer",
    "profile_families",
    "measurements_to_profiles",
]


@dataclass(frozen=True)
class LayerMeasurement:
    """Wall-clock cost of one layer family at one width/batch point."""

    family: str
    width: int
    batch: int
    fwd_ms: float
    bwd_ms: float
    param_count: int


def _time_ms(fn, repeats: int) -> float:
    fn()  # warm-up (allocations, cache)
    started = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - started) * 1000.0 / repeats


def profile_layer(
    family: str,
    width: int = 64,
    batch: int = 32,
    repeats: int = 20,
    seed: int = 0,
) -> LayerMeasurement:
    """Measure one family's forward and backward wall-clock cost."""
    rng = np.random.Generator(np.random.PCG64(seed))
    params = build_parameters(family, width, rng)
    x = rng.standard_normal((batch, width)).astype(np.float32)
    y, cache = layer_forward(family, x, params)
    dy = rng.standard_normal(y.shape).astype(np.float32)

    fwd_ms = _time_ms(lambda: layer_forward(family, x, params), repeats)
    bwd_ms = _time_ms(lambda: layer_backward(family, dy, cache, params), repeats)
    param_count = sum(array.size for array in params.values())
    return LayerMeasurement(
        family=family,
        width=width,
        batch=batch,
        fwd_ms=fwd_ms,
        bwd_ms=bwd_ms,
        param_count=param_count,
    )


def profile_families(
    families: Optional[Sequence[str]] = None,
    width: int = 64,
    batch: int = 32,
    repeats: int = 20,
) -> Dict[str, LayerMeasurement]:
    """Profile several families under identical conditions."""
    selected = list(families) if families else sorted(LAYER_IMPLEMENTATIONS)
    return {
        family: profile_layer(family, width, batch, repeats)
        for family in selected
    }


def measurements_to_profiles(
    measurements: Dict[str, LayerMeasurement],
    activation_bytes_per_sample: int = 25_000,
) -> Dict[str, LayerTypeProfile]:
    """Convert measurements into catalog profiles for a custom space."""
    return {
        family: LayerTypeProfile(
            name=family,
            impl=family,
            fwd_ms=measurement.fwd_ms,
            bwd_ms=measurement.bwd_ms,
            param_count=measurement.param_count,
            activation_bytes_per_sample=activation_bytes_per_sample,
        )
        for family, measurement in measurements.items()
    }
