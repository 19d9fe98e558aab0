"""The Supernet object: per-candidate-layer profiles over a search space.

The supernet assigns every candidate layer ``(block, choice)`` a concrete
:class:`LayerProfile` — its type (from the domain catalog), a deterministic
per-instance size scale, and the resulting compute/memory/swap costs.  The
size scale models the real spaces (Evolved Transformer, AmoebaNet) where
candidates within a block differ in width/kernel and therefore in cost;
that variance is what makes static partitions unbalanced and NASPipe's
per-subnet balanced partition (plus mirroring) worth 9.6% execution time
in the paper.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.nn.parameter_store import LayerId
from repro.supernet.catalog import (
    BYTES_PER_PARAM,
    PCIE_BANDWIDTH_BYTES_PER_MS,
    LayerTypeProfile,
    catalog_for_domain,
)
from repro.supernet.search_space import SearchSpace
from repro.supernet.subnet import Subnet

__all__ = ["LayerProfile", "ChoiceBlock", "Supernet"]

#: Size scales span ±25% around 1.0 — comparable to the fwd-time spread
#: within Table 5's layer families.
_SCALE_MIN = 0.75
_SCALE_SPAN = 0.5


def _deterministic_fraction(space_name: str, layer: LayerId) -> float:
    """A stable pseudo-random fraction in [0, 1) for one candidate layer."""
    block, choice = layer
    digest = hashlib.sha256(f"{space_name}/{block}/{choice}".encode()).digest()
    return int.from_bytes(digest[:8], "little") / float(1 << 64)


@dataclass(frozen=True)
class LayerProfile:
    """Fully-resolved costs of one candidate layer instance."""

    layer: LayerId
    type_profile: LayerTypeProfile
    size_scale: float

    @property
    def impl(self) -> str:
        return self.type_profile.impl

    @property
    def fwd_ms_ref(self) -> float:
        return self.type_profile.fwd_ms * self.size_scale

    @property
    def bwd_ms_ref(self) -> float:
        return self.type_profile.bwd_ms * self.size_scale

    @property
    def param_count(self) -> int:
        return int(self.type_profile.param_count * self.size_scale)

    @property
    def param_bytes(self) -> int:
        return self.param_count * BYTES_PER_PARAM

    @property
    def swap_ms(self) -> float:
        return self.param_bytes / PCIE_BANDWIDTH_BYTES_PER_MS

    @property
    def activation_bytes_per_sample(self) -> int:
        return self.type_profile.activation_bytes_per_sample


@dataclass(frozen=True)
class ChoiceBlock:
    """One choice block: its index and candidate profiles."""

    index: int
    candidates: Tuple[LayerProfile, ...]

    def __len__(self) -> int:
        return len(self.candidates)


class Supernet:
    """Profile bookkeeping for a whole search space.

    Construction is cheap; per-layer profiles are computed on demand and
    memoised.  The supernet never touches weights — the functional plane
    owns those — it answers cost/size questions for partitioning,
    scheduling and memory modelling.
    """

    def __init__(self, space: SearchSpace) -> None:
        self.space = space
        self._catalog = catalog_for_domain(space.domain)
        self._profiles: Dict[LayerId, LayerProfile] = {}
        self._expected_param_count: Optional[int] = None

    # ------------------------------------------------------------------
    def profile(self, layer: LayerId) -> LayerProfile:
        """The resolved profile of candidate ``(block, choice)``."""
        cached = self._profiles.get(layer)
        if cached is not None:
            return cached
        block, choice = layer
        if not 0 <= block < self.space.num_blocks:
            raise IndexError(f"block {block} out of range")
        if not 0 <= choice < self.space.choices_per_block:
            raise IndexError(f"choice {choice} out of range")
        type_profile = self._catalog[choice % len(self._catalog)]
        fraction = _deterministic_fraction(self.space.name, layer)
        profile = LayerProfile(
            layer=layer,
            type_profile=type_profile,
            size_scale=_SCALE_MIN + _SCALE_SPAN * fraction,
        )
        self._profiles[layer] = profile
        return profile

    def impl_for(self, layer: LayerId) -> str:
        """Functional implementation family of a candidate layer."""
        return self.profile(layer).impl

    def choice_block(self, block: int) -> ChoiceBlock:
        return ChoiceBlock(
            index=block,
            candidates=tuple(
                self.profile((block, choice))
                for choice in range(self.space.choices_per_block)
            ),
        )

    def blocks(self) -> List[ChoiceBlock]:
        return [self.choice_block(b) for b in range(self.space.num_blocks)]

    # ------------------------------------------------------------------
    # aggregate sizes (Table 2's "P.S." column)
    # ------------------------------------------------------------------
    def total_param_count(self) -> int:
        """Parameters of the *whole* supernet (what GPipe must hold)."""
        return sum(
            self.profile((block, choice)).param_count
            for block in range(self.space.num_blocks)
            for choice in range(self.space.choices_per_block)
        )

    def total_param_bytes(self) -> int:
        return self.total_param_count() * BYTES_PER_PARAM

    def expected_subnet_param_count(self) -> int:
        """Expected parameters of a uniformly sampled subnet (summed
        once: the space is immutable)."""
        if self._expected_param_count is None:
            total = 0
            for block in range(self.space.num_blocks):
                block_total = sum(
                    self.profile((block, choice)).param_count
                    for choice in range(self.space.choices_per_block)
                )
                total += block_total // self.space.choices_per_block
            self._expected_param_count = total
        return self._expected_param_count

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------
    def batch_time_scale(self, batch: int) -> float:
        """Compute-time multiplier for ``batch`` vs the reference batch.

        ``t(b) = t_ref × (b + b0) / (b_ref + b0)`` — the latency-floor
        law calibrated so Table 2's Exec column ratios come out right.
        """
        b0 = self.space.batch_latency_floor
        return (batch + b0) / (self.space.reference_batch + b0)

    def layer_fwd_ms(self, layer: LayerId, batch: int) -> float:
        return self.profile(layer).fwd_ms_ref * self.batch_time_scale(batch)

    def subnet_fwd_ms(self, subnet: Subnet, batch: int) -> float:
        scale = self.batch_time_scale(batch)
        return scale * sum(
            self.profile(layer).fwd_ms_ref for layer in subnet.layer_ids()
        )

    def subnet_bwd_ms(self, subnet: Subnet, batch: int) -> float:
        scale = self.batch_time_scale(batch)
        return scale * sum(
            self.profile(layer).bwd_ms_ref for layer in subnet.layer_ids()
        )

    def subnet_total_ms(self, subnet: Subnet, batch: int) -> float:
        return self.subnet_fwd_ms(subnet, batch) + self.subnet_bwd_ms(subnet, batch)

    def gpu_alu_efficiency(self, batch: int) -> float:
        """ALU occupancy while computing at ``batch`` (saturation curve).

        Small batches leave SMs idle; the paper's per-GPU ALU numbers
        (Table 2) reflect this — PipeDream's tiny batches keep its ALU
        utilisation at 0.6× of one GPU across eight of them.
        """
        b0 = self.space.batch_latency_floor
        return batch / (batch + b0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Supernet({self.space.name})"
