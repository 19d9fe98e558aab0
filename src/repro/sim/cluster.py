"""Cluster topology: copy engines and links, built from a spec.

Defaults mirror the paper's testbed: 11 GB GPUs, PCIe 3.0 ×16 at
15 760 MB/s for host↔device copies, inter-stage traffic capped at the
measured 867 MB/s, 0.17 ms ping.  Each ``Cluster(spec)`` builds fresh
devices, so no occupancy state (``next_free``) leaks between runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.devices import CopyEngine, Link

__all__ = ["ClusterSpec", "Cluster"]

_MB = 1_000_000


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a pipeline cluster.

    By default every inter-stage link runs at the measured end-to-end
    bandwidth (``uniform_network=True``) — the regime the paper reports
    ("the maximized network bandwidth ... was 867 MB/s").  Setting
    ``uniform_network=False`` models the testbed's physical topology:
    ``gpus_per_host`` GPUs share a host, adjacent stages on the same host
    talk over PCIe peer-to-peer (fast), host boundaries cross 40 GbE.
    """

    num_gpus: int = 8
    gpu_memory_bytes: int = 11 * 1_000_000_000
    #: framework + CUDA context + workspace overhead per GPU
    reserved_bytes: int = 900 * _MB
    pcie_bandwidth_bytes_per_ms: float = 15_760 * _MB / 1_000.0
    network_bandwidth_bytes_per_ms: float = 867 * _MB / 1_000.0
    network_latency_ms: float = 0.17
    uniform_network: bool = True
    gpus_per_host: int = 4
    intra_host_bandwidth_bytes_per_ms: float = 10_000 * _MB / 1_000.0
    intra_host_latency_ms: float = 0.01
    #: per-GPU compute slowdown factors (1.0 = nominal).  Models mixed
    #: hardware or thermal throttling; used to show CSP reproducibility
    #: is timing-independent ("potentially on a different cluster").
    gpu_speed_factors: "tuple[float, ...] | None" = None

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigError(f"need at least 1 GPU, got {self.num_gpus}")
        if self.reserved_bytes >= self.gpu_memory_bytes:
            raise ConfigError("reserved bytes exceed GPU memory")
        if self.gpus_per_host < 1:
            raise ConfigError("gpus_per_host must be positive")
        if self.gpu_speed_factors is not None:
            if len(self.gpu_speed_factors) != self.num_gpus:
                raise ConfigError(
                    f"gpu_speed_factors needs {self.num_gpus} entries, "
                    f"got {len(self.gpu_speed_factors)}"
                )
            if any(factor <= 0 for factor in self.gpu_speed_factors):
                raise ConfigError("gpu speed factors must be positive")

    def speed_factor(self, gpu_id: int) -> float:
        if self.gpu_speed_factors is None:
            return 1.0
        return self.gpu_speed_factors[gpu_id]

    def host_of(self, gpu_id: int) -> int:
        return gpu_id // self.gpus_per_host

    def link_parameters(self, src: int, dst: int):
        """(bandwidth, latency) for a stage-to-stage link."""
        if self.uniform_network or self.host_of(src) == self.host_of(dst):
            if self.uniform_network:
                return self.network_bandwidth_bytes_per_ms, self.network_latency_ms
            return (
                self.intra_host_bandwidth_bytes_per_ms,
                self.intra_host_latency_ms,
            )
        return self.network_bandwidth_bytes_per_ms, self.network_latency_ms

    @property
    def num_hosts(self) -> int:
        return (self.num_gpus + self.gpus_per_host - 1) // self.gpus_per_host


class Cluster:
    """Instantiated devices for one simulation run."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self.copy_engines = [
            CopyEngine(i, spec.pcie_bandwidth_bytes_per_ms)
            for i in range(spec.num_gpus)
        ]
        # forward_links[i] carries stage i -> i+1 traffic; a paired
        # reverse link carries gradients.  Full duplex, so they do not
        # contend with each other.  Bandwidth/latency per link depend on
        # whether the hop crosses a host boundary (see ClusterSpec).
        self.forward_links = [
            Link(i, i + 1, *spec.link_parameters(i, i + 1))
            for i in range(spec.num_gpus - 1)
        ]
        self.backward_links = [
            Link(i + 1, i, *spec.link_parameters(i + 1, i))
            for i in range(spec.num_gpus - 1)
        ]

    @property
    def num_stages(self) -> int:
        return self.spec.num_gpus

    def forward_link(self, from_stage: int) -> Link:
        return self.forward_links[from_stage]

    def backward_link(self, from_stage: int) -> Link:
        return self.backward_links[from_stage - 1]
