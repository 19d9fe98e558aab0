"""GPU memory feasibility: what batch size each system can train.

The paper's Table 2 batch-size gaps (NASPipe 192 vs GPipe 32 vs PipeDream
16 on NLP.c1) and the NLP.c0 out-of-memory failures of GPipe/PipeDream
all derive from one constraint: parameters + activations must fit the
11 GB GPU.  This module prices both sides:

* **parameter residency** — full-context systems pin their whole supernet
  partition (plus gradient/optimizer buffers); cached systems pin only a
  small multiple of one subnet's stage share;
* **activation footprint** — a per-sample *stash* for every in-flight
  subnet (checkpoint boundaries when recomputing, all intermediates when
  not) plus a per-sample *working set* for the task being computed.

Constants are calibrated against the paper's testbed (see
EXPERIMENTS.md); they are deliberately coarse — the reproduction targets
the ordering and growth trends, not exact sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SystemConfig
from repro.sim.cluster import ClusterSpec
from repro.supernet.supernet import Supernet

__all__ = [
    "MemoryBreakdown",
    "resident_param_bytes_per_stage",
    "activation_bytes_per_sample",
    "max_feasible_batch",
]

_MB = 1_000_000

#: Per-sample activation stash per stage when recomputing (boundary +
#: checkpoint segments) and the transient working set during a task.
_STASH_BYTES = {"NLP": 4 * _MB, "CV": 12 * _MB}
_WORKING_BYTES = {"NLP": 7 * _MB, "CV": 20 * _MB}
#: Per-layer intermediate kept when NOT recomputing (PipeDream).
_NO_RECOMPUTE_LAYER_BYTES = {"NLP": int(2.5 * _MB), "CV": 6 * _MB}
#: Gradient + optimizer buffers as a multiple of resident parameters.
_PARAM_OVERHEAD_FACTOR = 1.25
#: ASP (PipeDream) additionally keeps stashed weight versions for
#: in-flight minibatches; its effective parameter overhead is higher.
_ASP_PARAM_OVERHEAD_FACTOR = 1.26
#: Batch sizes are multiples of this granularity.
_BATCH_GRANULARITY = 4


@dataclass(frozen=True)
class MemoryBreakdown:
    """Per-GPU memory budget decomposition at a given batch size."""

    usable_bytes: int
    param_bytes: int
    stash_bytes: int
    working_bytes: int

    @property
    def total(self) -> int:
        return self.param_bytes + self.stash_bytes + self.working_bytes

    @property
    def fits(self) -> bool:
        return self.total <= self.usable_bytes


def resident_param_bytes_per_stage(
    supernet: Supernet, config: SystemConfig, stages: int
) -> int:
    """Pinned parameter bytes (incl. grad/optimizer buffers) per GPU."""
    if config.context == "full":
        base = supernet.total_param_bytes() / stages
    else:
        subnet_share = supernet.expected_subnet_param_count() * 4 / stages
        base = config.cache_subnets * subnet_share
    factor = (
        _ASP_PARAM_OVERHEAD_FACTOR if config.sync == "asp" else _PARAM_OVERHEAD_FACTOR
    )
    return int(base * factor)


def activation_bytes_per_sample(
    supernet: Supernet, config: SystemConfig, stages: int
) -> int:
    """Stash (× in-flight window) + working set, per sample, per GPU."""
    domain = supernet.space.domain
    if config.recompute:
        stash = _STASH_BYTES[domain]
    else:
        layers_per_stage = supernet.space.num_blocks / stages
        stash = int(layers_per_stage * _NO_RECOMPUTE_LAYER_BYTES[domain])
    window = _stash_window(config, stages)
    return window * stash + _WORKING_BYTES[domain]


def _stash_window(config: SystemConfig, stages: int) -> int:
    """How many in-flight subnets stash activations per stage.

    ASP (1F1B) keeps up to pipeline-depth stashes alive at stage 0 — and
    the worst stage governs the memory budget.  Synchronous policies
    stash their full window.
    """
    if config.sync == "asp":
        return stages
    return config.default_window(stages)


def memory_breakdown(
    supernet: Supernet,
    config: SystemConfig,
    cluster: ClusterSpec,
    batch: int,
) -> MemoryBreakdown:
    """The budget at ``batch``: its ``total`` is exactly ``params + batch
    × activation_bytes_per_sample`` (every term an ``int``)."""
    stages = cluster.num_gpus
    working = _WORKING_BYTES[supernet.space.domain]
    per_sample = activation_bytes_per_sample(supernet, config, stages)
    return MemoryBreakdown(
        usable_bytes=cluster.gpu_memory_bytes - cluster.reserved_bytes,
        param_bytes=resident_param_bytes_per_stage(supernet, config, stages),
        stash_bytes=(per_sample - working) * batch,
        working_bytes=working * batch,
    )


def max_feasible_batch(
    supernet: Supernet, config: SystemConfig, cluster: ClusterSpec
) -> Optional[int]:
    """Largest supported batch (multiple of 4, capped by the space's
    ``max_batch``), or None when even the minimum batch overflows — the
    system OOMs on this search space (GPipe/PipeDream on NLP.c0).

    Memory grows by the same whole number of bytes per sample, so the
    budget is solved once instead of searched batch by batch."""
    stages = cluster.num_gpus
    spare = (
        cluster.gpu_memory_bytes
        - cluster.reserved_bytes
        - resident_param_bytes_per_stage(supernet, config, stages)
    )
    per_sample = activation_bytes_per_sample(supernet, config, stages)
    cap = min(supernet.space.max_batch, spare // per_sample)
    batch = int(cap) // _BATCH_GRANULARITY * _BATCH_GRANULARITY
    return batch if batch >= _BATCH_GRANULARITY else None
