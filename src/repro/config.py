"""System configurations: what distinguishes NASPipe from each baseline.

A :class:`SystemConfig` captures every axis the paper varies across
systems and ablations — synchronisation pattern, partitioning strategy,
context management, predictor, activation recomputation, mirroring.
Factories for the concrete systems live in :mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError

__all__ = ["SystemConfig"]

SYNC_MODES = ("csp", "bsp", "asp", "ssp")
PARTITIONING = ("balanced", "static")
CONTEXT_MODES = ("full", "cached")


@dataclass(frozen=True)
class SystemConfig:
    """Every knob that defines a pipeline training system.

    ``cache_subnets`` is the context cache capacity as a multiple of one
    subnet's per-stage parameter share (3.0 for NASPipe — current,
    previous, next; 1.0 for VPipe).  ``inject_window``/``bulk_size``
    default per policy when None.  ``staleness`` only applies to SSP.
    """

    name: str
    sync: str = "csp"
    partitioning: str = "balanced"
    context: str = "cached"
    cache_subnets: float = 3.0
    predictor: bool = True
    predictor_depth: int = 2
    recompute: bool = True
    mirroring: bool = True
    #: how off-home layers reach their executing stage when partitions are
    #: balanced per subnet: "mirror" = active replication with async push
    #: (NASPipe §4.2); "migrate" = on-demand move over the interconnect,
    #: paying synchronous cost per use (the §2.3 alternative NASPipe
    #: rejects).
    mirror_mode: str = "mirror"
    in_order_only: bool = False  # "w/o scheduler" ablation
    inject_window: Optional[int] = None
    bulk_size: Optional[int] = None
    staleness: int = 0

    def __post_init__(self) -> None:
        if self.sync not in SYNC_MODES:
            raise ConfigError(f"sync must be one of {SYNC_MODES}, got {self.sync!r}")
        if self.partitioning not in PARTITIONING:
            raise ConfigError(
                f"partitioning must be one of {PARTITIONING}, "
                f"got {self.partitioning!r}"
            )
        if self.context not in CONTEXT_MODES:
            raise ConfigError(
                f"context must be one of {CONTEXT_MODES}, got {self.context!r}"
            )
        if self.partitioning == "balanced" and not self.mirroring:
            raise ConfigError(
                f"{self.name}: balanced per-subnet partitions require "
                "mirroring (layers must execute off their home stage)"
            )
        if self.cache_subnets <= 0:
            raise ConfigError("cache_subnets must be positive")
        if self.mirror_mode not in ("mirror", "migrate"):
            raise ConfigError(
                f"mirror_mode must be 'mirror' or 'migrate', "
                f"got {self.mirror_mode!r}"
            )
        if self.predictor and self.context == "full":
            raise ConfigError(
                f"{self.name}: the predictor only applies to cached context"
            )
        # These arrive from JSON ``overrides``; out of range they would
        # only surface as a mid-run DeadlockError, or not at all.
        for field_name in ("inject_window", "bulk_size"):
            value = getattr(self, field_name)
            if value is not None and value < 1:
                raise ConfigError(
                    f"{self.name}: {field_name} must be >= 1, got {value!r}"
                )
        if self.predictor and self.predictor_depth < 1:
            raise ConfigError(
                f"{self.name}: predictor_depth must be >= 1, "
                f"got {self.predictor_depth!r}"
            )
        if self.staleness < 0:
            raise ConfigError(
                f"{self.name}: staleness must be >= 0, got {self.staleness!r}"
            )

    def with_overrides(self, **overrides) -> "SystemConfig":
        """A copy with fields replaced (ablation/sweep helper)."""
        return replace(self, **overrides)

    def default_window(self, stages: int) -> int:
        """In-flight subnet window used for injection and memory sizing."""
        if self.inject_window is not None:
            return self.inject_window
        if self.sync == "bsp":
            return self.default_bulk(stages)
        if self.sync == "asp":
            return stages
        if self.sync == "ssp":
            return stages
        return stages + 2  # csp

    def default_bulk(self, stages: int) -> int:
        """BSP bulk size; chosen so the GPipe bubble lands near the
        paper's constant 0.57 at 8 stages ((D-1)/(B+D-1))."""
        if self.bulk_size is not None:
            return self.bulk_size
        return max(2, (3 * stages) // 4 - 1)
