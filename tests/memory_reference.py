"""The batch search as it was before the budget was solved, as a reference.

Through commit ``ef7107e`` ``repro.memory_model.max_feasible_batch`` walked
batch 4, 8, … up to the space's ``max_batch``, building a full
``memory_breakdown`` for each and stopping at the first that overflowed.
This module is that code, copied verbatim (``_layers_per_stage`` inlined
into the one expression that used it), so
``tests/test_memory_reference.py`` can hold the closed form to it.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SystemConfig
from repro.memory_model import (
    _BATCH_GRANULARITY,
    _NO_RECOMPUTE_LAYER_BYTES,
    _STASH_BYTES,
    _WORKING_BYTES,
    MemoryBreakdown,
    _stash_window,
    resident_param_bytes_per_stage,
)
from repro.sim.cluster import ClusterSpec
from repro.supernet.supernet import Supernet


def memory_breakdown(
    supernet: Supernet,
    config: SystemConfig,
    cluster: ClusterSpec,
    batch: int,
) -> MemoryBreakdown:
    stages = cluster.num_gpus
    params = resident_param_bytes_per_stage(supernet, config, stages)
    domain = supernet.space.domain
    if config.recompute:
        stash_unit = _STASH_BYTES[domain]
    else:
        stash_unit = int(
            supernet.space.num_blocks / stages * _NO_RECOMPUTE_LAYER_BYTES[domain]
        )
    stash = _stash_window(config, stages) * stash_unit * batch
    working = _WORKING_BYTES[domain] * batch
    return MemoryBreakdown(
        usable_bytes=cluster.gpu_memory_bytes - cluster.reserved_bytes,
        param_bytes=params,
        stash_bytes=stash,
        working_bytes=working,
    )


def max_feasible_batch(
    supernet: Supernet, config: SystemConfig, cluster: ClusterSpec
) -> Optional[int]:
    """Largest supported batch (multiple of 4, capped by the space's
    ``max_batch``), or None when even the minimum batch overflows — the
    system OOMs on this search space (GPipe/PipeDream on NLP.c0)."""
    best: Optional[int] = None
    batch = _BATCH_GRANULARITY
    while batch <= supernet.space.max_batch:
        if memory_breakdown(supernet, config, cluster, batch).fits:
            best = batch
        else:
            break
        batch += _BATCH_GRANULARITY
    return best
