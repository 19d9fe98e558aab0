"""Layer mirroring between pipeline stages (paper §4.2).

NASPipe initialises each layer's pinned-CPU home according to the static
(expected-cost) partition.  When a subnet's *balanced* partition assigns a
layer to a different stage than its home, the layer is **mirrored** there:
a replica is registered on the visiting stage (PyTorch ``add_module`` in
the original), and every subsequent parameter update to the layer is
actively pushed to all replicas over the interconnect.

The registry tracks replica sets and accounts the push-synchronisation
traffic, so the "w/o mirroring" ablation (Figure 6) can price what
mirroring buys: without it, a layer can only execute on its home stage and
each subnet is stuck with the static partition's imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.nn.parameter_store import LayerId
from repro.partition.balanced import Partition

__all__ = ["MirrorEvent", "MirrorRegistry"]


@dataclass(frozen=True)
class MirrorEvent:
    """One replica creation: ``layer`` mirrored onto ``stage``."""

    layer: LayerId
    home_stage: int
    stage: int
    time: float


@dataclass
class MirrorRegistry:
    """Tracks layer homes, replicas, and push-sync traffic."""

    home_partition: Partition
    events: List[MirrorEvent] = field(default_factory=list)
    _replicas: Dict[LayerId, Set[int]] = field(default_factory=dict)
    push_bytes_total: int = 0
    push_count: int = 0

    def home_stage(self, layer: LayerId) -> int:
        """The stage whose pinned CPU storage owns ``layer``."""
        block = layer[0]
        for stage, (start, stop) in enumerate(self.home_partition):
            if start <= block < stop:
                return stage
        raise KeyError(f"block {block} not covered by home partition")

    def replicas(self, layer: LayerId) -> Set[int]:
        """All stages currently holding ``layer`` (home included)."""
        stages = self._replicas.get(layer)
        if stages is None:
            stages = {self.home_stage(layer)}
            self._replicas[layer] = stages
        return stages

    def ensure_resident_stage(
        self, layer: LayerId, stage: int, time: float = 0.0
    ) -> bool:
        """Mirror ``layer`` onto ``stage`` if it is not already there.

        Returns True when a new replica was created.
        """
        stages = self.replicas(layer)
        if stage in stages:
            return False
        stages.add(stage)
        self.events.append(MirrorEvent(layer, self.home_stage(layer), stage, time))
        return True

    def register_stages(
        self, stage_layers: Sequence[Sequence[LayerId]], time: float = 0.0
    ) -> List[MirrorEvent]:
        """Mirror every layer of a subnet's per-stage layer views off
        its home stage; returns the events this call created (empty when
        the subnet's partition matches all homes)."""
        before = len(self.events)
        for stage, layers in enumerate(stage_layers):
            for layer in layers:
                self.ensure_resident_stage(layer, stage, time)
        return self.events[before:]

    def record_update_push(self, layer: LayerId, param_bytes: int) -> int:
        """Account the traffic of pushing an update to all replicas.

        Returns the bytes sent (0 when the layer has a single residence).
        """
        fan_out = len(self.replicas(layer)) - 1
        sent = fan_out * param_bytes
        if sent:
            self.push_bytes_total += sent
            self.push_count += 1
        return sent

    def stage_replica_counts(self) -> Dict[int, int]:
        """Off-home replicas resident per stage, sorted by stage.

        Shows where mirroring has shifted supernet mass relative to the
        static homes — the degradation rebalancer's report of which
        stages absorbed a straggler's blocks.
        """
        counts: Dict[int, int] = {}
        for layer, stages in self._replicas.items():
            home = self.home_stage(layer)
            for stage in stages:
                if stage != home:
                    counts[stage] = counts.get(stage, 0) + 1
        return {stage: counts[stage] for stage in sorted(counts)}
