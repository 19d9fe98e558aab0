"""Device models: PCIe copy engines and inter-stage links.

Both are *occupancy* models: a device serves one request at a time and
requests queue FIFO.  That is the level of fidelity the paper's metrics
need — cache hit rate is a function of whether a copy finished before
the compute that needs it.  A GPU's compute occupancy is the engine's
per-stage busy flag, and its parameter residency is the stage's
:class:`~repro.core.context_manager.StageContextManager`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CopyEngine", "Link"]


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
