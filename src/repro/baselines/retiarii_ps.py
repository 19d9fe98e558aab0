"""Retiarii's wrapped data parallelism with a global parameter server.

The paper does not benchmark Retiarii's executor (it cannot hold the large
supernets at all), but §2.2 argues against its design: one subnet per GPU,
synchronised through an *external global* parameter server.  This model
implements that pattern over the same functional plane so the repo can
(a) demonstrate the BSP-style non-reproducibility of bulk PS updates and
(b) quantify the synchronisation-server bottleneck the paper calls
"neither scalable nor efficient".

Timing model: each worker trains whole subnets locally; every parameter
pull/push of a subnet's full context serialises through the PS's single
network interface (FIFO), which is the scalability ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.engines.functional_plane import FunctionalPlane
from repro.supernet.sampler import SubnetStream
from repro.supernet.supernet import Supernet

__all__ = ["RetiariiParameterServer", "RetiariiResult"]

_PS_BANDWIDTH_BYTES_PER_MS = 867 * 1_000_000 / 1_000.0  # one NIC for the PS


@dataclass
class RetiariiResult:
    subnets_completed: int
    makespan_ms: float
    losses: Dict[int, float]
    digest: Optional[str]
    ps_busy_ms: float


class RetiariiParameterServer:
    """One-subnet-per-GPU data parallelism with bulk PS synchronisation."""

    def __init__(
        self,
        supernet: Supernet,
        stream: SubnetStream,
        functional: FunctionalPlane,
        num_workers: int = 8,
        batch: Optional[int] = None,
    ) -> None:
        self.supernet = supernet
        self.stream = stream
        self.functional = functional
        self.num_workers = num_workers
        self.batch = batch if batch is not None else supernet.space.max_batch

    # ------------------------------------------------------------------
    def run(self) -> RetiariiResult:
        """Bulk-train: workers each take one subnet; the PS applies all
        updates at the bulk barrier (Retiarii's BSP pattern)."""
        losses: Dict[int, float] = {}
        clock_ms = 0.0
        ps_free = 0.0
        ps_busy = 0.0
        self.stream.reset()
        while True:
            bulk = []
            for _ in range(self.num_workers):
                subnet = self.stream.retrieve()
                if subnet is None:
                    break
                bulk.append(subnet)
            if not bulk:
                break
            # Workers compute in parallel against the pre-bulk snapshot.
            bulk_updates = []
            compute_ms = 0.0
            for subnet in bulk:
                stage_input = self.functional.input_for(subnet)
                activation = self.functional.forward_stage(
                    subnet, 0, (0, subnet.num_blocks), stage_input, clock_ms
                )
                loss, dfinal = self.functional.loss_and_grad(
                    subnet, activation.stage_output
                )
                _dx, updates = self.functional.backward_stage(activation, dfinal)
                bulk_updates.append((subnet.subnet_id, updates))
                losses[subnet.subnet_id] = float(loss)
                compute_ms = max(
                    compute_ms, self.supernet.subnet_total_ms(subnet, self.batch)
                )
            # PS phase: every worker pushes its subnet's parameters through
            # the server's single NIC — the serialisation bottleneck.
            clock_ms += compute_ms
            for subnet_id, updates in sorted(bulk_updates):
                push_bytes = self.supernet.subnet_param_bytes(
                    self._subnet_by_id(subnet_id, bulk)
                )
                start = max(clock_ms, ps_free)
                duration = push_bytes / _PS_BANDWIDTH_BYTES_PER_MS
                ps_free = start + duration
                ps_busy += duration
                self.functional.commit(updates, ps_free)
            clock_ms = ps_free
        return RetiariiResult(
            subnets_completed=len(losses),
            makespan_ms=clock_ms,
            losses=losses,
            digest=self.functional.digest(),
            ps_busy_ms=ps_busy,
        )

    @staticmethod
    def _subnet_by_id(subnet_id: int, bulk) -> object:
        for subnet in bulk:
            if subnet.subnet_id == subnet_id:
                return subnet
        raise KeyError(subnet_id)
