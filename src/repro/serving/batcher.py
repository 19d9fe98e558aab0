"""Bounded batching with flow control for the serving front-end.

The shape is Beam's ``GroupIntoBatches`` streaming idiom: requests
queue until either ``max_batch`` of them are waiting or the oldest has
lingered ``max_linger_ms``, then the group is emitted as one batch.
Admission control is a hard bound on the **in-system backlog** — the
un-batched queue plus every admitted request whose batch has not
finished scoring.  Once that backlog reaches ``queue_bound``, further
arrivals are **shed** (rejected immediately) rather than queued into
unbounded latency; because the backlog at any arrival instant is a
pure function of the arrival sequence and the (deterministic) scoring
schedule, two runs of the same workload shed exactly the same request
ids in the same order.

The backlog bound also caps an admitted request's latency: it waits at
most ``max_linger_ms`` to join a batch plus at most
``queue_bound / max_batch`` batch services — which is what makes a
latency SLO for *admitted* requests honest under overload.

The batcher is a passive data structure driven by the front-end's
virtual clock; it never reads wall time.  Linger expiry is one timer
per admitted request (armed by the caller for ``arrival +
max_linger_ms``): when it fires and the request is still un-batched,
the front group flushes — so no request lingers past the window, and a
timer whose request already left is simply stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.serving.workload import EvalRequest

__all__ = ["BatchPolicy", "BoundedBatcher", "FormedBatch"]


@dataclass(frozen=True)
class BatchPolicy:
    """Batching and admission-control knobs."""

    max_batch: int = 8  # flush when this many requests wait
    max_linger_ms: float = 5.0  # ... or when the oldest waited this long
    queue_bound: int = 64  # shed once in-system backlog reaches this

    def validate(self) -> None:
        if self.max_batch <= 0:
            raise ConfigError(f"max_batch must be > 0, got {self.max_batch}")
        if not 0 <= self.max_linger_ms < math.inf:  # NaN fails both
            raise ConfigError(
                f"max_linger_ms must be finite and >= 0, got {self.max_linger_ms}"
            )
        if self.queue_bound < self.max_batch:
            raise ConfigError(
                f"queue_bound {self.queue_bound} must be >= max_batch "
                f"{self.max_batch} (a full batch must be admittable)"
            )


@dataclass(frozen=True)
class FormedBatch:
    """One emitted batch: the requests plus why it formed."""

    index: int  # 0-based formation ordinal
    cause: str  # "full" | "linger" | "drain"
    requests: tuple  # Tuple[EvalRequest, ...] in admission order
    oldest_wait_ms: float  # linger of the oldest member at formation

    def __len__(self) -> int:
        return len(self.requests)


class BoundedBatcher:
    """Deterministic bounded batching + admission control (one queue)."""

    def __init__(self, policy: BatchPolicy) -> None:
        policy.validate()
        self.policy = policy
        self._queue: List[EvalRequest] = []
        self._queued_at: List[float] = []
        self.admitted = 0
        self.shed = 0
        self.batches_formed = 0

    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Un-batched requests currently queued."""
        return len(self._queue)

    def offer(self, request: EvalRequest, now: float, backlog: int) -> bool:
        """Admit ``request`` (True) or shed it at the bound (False).

        ``backlog`` is the caller's count of admitted-but-unfinished
        requests *outside* this queue (batches formed and waiting for,
        or on, the executor); the bound applies to the sum.
        """
        if len(self._queue) + backlog >= self.policy.queue_bound:
            self.shed += 1
            return False
        self._queue.append(request)
        self._queued_at.append(now)
        self.admitted += 1
        return True

    def requeue(
        self, requests: Sequence[EvalRequest], now: float, backlog: int
    ) -> "Tuple[List[EvalRequest], List[EvalRequest]]":
        """Re-admit dissolved in-flight requests at the **queue front**.

        Used when a lease revocation dissolves formed batches: their
        requests retry ahead of later arrivals, in the order given
        (executing batch first, admission order within a batch) — so the
        retry order is a pure function of the dissolution instant.  The
        ``queue_bound`` still applies: requests that no longer fit are
        shed, returned in the second list.  Retries do not re-count as
        admissions.
        """
        requeued: List[EvalRequest] = []
        shed: List[EvalRequest] = []
        for request in requests:
            if len(self._queue) + backlog >= self.policy.queue_bound:
                self.shed += 1
                shed.append(request)
                continue
            self._queue.insert(len(requeued), request)
            self._queued_at.insert(len(requeued), now)
            requeued.append(request)
        return requeued, shed

    def full(self) -> bool:
        return len(self._queue) >= self.policy.max_batch

    def contains(self, request_id: int) -> bool:
        return any(r.request_id == request_id for r in self._queue)

    # ------------------------------------------------------------------
    def _emit(self, count: int, now: float, cause: str) -> FormedBatch:
        taken = tuple(self._queue[:count])
        oldest = self._queued_at[0]
        del self._queue[:count]
        del self._queued_at[:count]
        batch = FormedBatch(
            index=self.batches_formed,
            cause=cause,
            requests=taken,
            oldest_wait_ms=now - oldest,
        )
        self.batches_formed += 1
        return batch

    def flush_full(self, now: float) -> Optional[FormedBatch]:
        """Emit a full batch if one is waiting."""
        if not self.full():
            return None
        return self._emit(self.policy.max_batch, now, "full")

    def flush_due(self, now: float, request_id: int) -> Optional[FormedBatch]:
        """Linger expiry for ``request_id``; stale timers return None.

        Fires the request's linger timer: if the request already left in
        an earlier batch there is nothing to do; otherwise the front
        group (which the request belongs to — timers fire in admission
        order) flushes now.
        """
        if not self.contains(request_id):
            return None
        count = min(len(self._queue), self.policy.max_batch)
        return self._emit(count, now, "linger")

    def drain(self, now: float) -> List[FormedBatch]:
        """Emit everything still queued (end of workload)."""
        batches: List[FormedBatch] = []
        while self._queue:
            count = min(len(self._queue), self.policy.max_batch)
            batches.append(self._emit(count, now, "drain"))
        return batches
