"""Device models: GPUs, PCIe copy engines, inter-stage links.

All three are *occupancy* models: a device serves one request at a time
and requests queue FIFO.  That is the level of fidelity the paper's
metrics need — bubble ratio and ALU utilisation are functions of when each
GPU is busy, cache hit rate is a function of whether a copy finished
before the compute that needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import GpuOutOfMemoryError

__all__ = ["GpuDevice", "CopyEngine", "Link"]


@dataclass
class GpuDevice:
    """One simulated GPU: serial compute plus a memory ledger.

    ``memory_capacity`` is in bytes (11 GB on the paper's 2080Ti).  The
    ledger tracks *parameter* residency; activation footprints are sized
    statically by :mod:`repro.memory_model` when choosing the batch, which
    mirrors how the real systems pick a batch size before the run.
    """

    gpu_id: int
    memory_capacity: int
    busy_until: float = 0.0
    resident_bytes: int = 0
    reserved_bytes: int = 0  # framework / workspace overhead
    _resident: Dict[object, int] = field(default_factory=dict)
    #: physical slot this device occupies in a shared fleet (set when the
    #: device is materialised from a :class:`repro.service.lease.DeviceLease`;
    #: ``None`` for engines that own their whole cluster, where stage
    #: index and physical identity coincide).
    slot: Optional[int] = None

    @property
    def physical_slot(self) -> int:
        """Fleet-wide identity of this GPU (== ``gpu_id`` outside a lease)."""
        return self.gpu_id if self.slot is None else self.slot

    @property
    def free_bytes(self) -> int:
        return self.memory_capacity - self.reserved_bytes - self.resident_bytes

    def is_busy(self, now: float) -> bool:
        """Whether compute is occupied at ``now`` (serial device, so any
        task started before ``busy_until`` blocks the next one)."""
        return self.busy_until > now

    def can_fit(self, nbytes: int) -> bool:
        return nbytes <= self.free_bytes

    def allocate(self, key: object, nbytes: int) -> None:
        """Pin ``nbytes`` under ``key`` (a layer id or context handle)."""
        if key in self._resident:
            return
        if not self.can_fit(nbytes):
            raise GpuOutOfMemoryError(self.gpu_id, nbytes, self.free_bytes)
        self._resident[key] = nbytes
        self.resident_bytes += nbytes

    def free(self, key: object) -> int:
        """Release the allocation under ``key``; returns bytes freed."""
        nbytes = self._resident.pop(key, 0)
        self.resident_bytes -= nbytes
        return nbytes


@dataclass
class CopyEngine:
    """Asynchronous CPU↔GPU copy engine (one per GPU), FIFO over PCIe.

    PyTorch's ``copy_(non_blocking=True)`` from pinned memory maps to one
    DMA engine that runs concurrently with compute — so a copy's finish
    time depends only on queueing at this engine, never on the GPU's
    compute occupancy.
    """

    gpu_id: int
    bandwidth_bytes_per_ms: float
    next_free: float = 0.0
    total_bytes_copied: int = 0
    total_copies: int = 0

    def enqueue(self, nbytes: int, now: float) -> float:
        """Enqueue a copy of ``nbytes``; returns its completion time."""
        start = now if now >= self.next_free else self.next_free
        self.next_free = done = start + nbytes / self.bandwidth_bytes_per_ms
        self.total_bytes_copied += nbytes
        self.total_copies += 1
        return done

    def would_complete_at(self, nbytes: int, now: float) -> float:
        """Completion time a copy *would* get, without enqueuing it."""
        start = max(now, self.next_free)
        return start + nbytes / self.bandwidth_bytes_per_ms


@dataclass
class Link:
    """A FIFO point-to-point transfer channel between adjacent stages."""

    src: int
    dst: int
    bandwidth_bytes_per_ms: float
    latency_ms: float = 0.17  # the testbed's average ping
    next_free: float = 0.0
    total_bytes: int = 0

    def transfer(self, nbytes: int, now: float) -> float:
        """Enqueue a transfer; returns delivery time at the destination."""
        start = max(now, self.next_free)
        duration = nbytes / self.bandwidth_bytes_per_ms
        self.next_free = start + duration
        self.total_bytes += nbytes
        return self.next_free + self.latency_ms
