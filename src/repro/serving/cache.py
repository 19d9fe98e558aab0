"""Two-tier serving cache: result digests + resident layer blocks.

Tier 1 — :class:`ResultCache` — memoises finished evaluations by
**subnet digest** (SHA-256 over the space name and the full choice
tuple): a repeated query for a popular architecture is answered without
touching the fleet at all.  Eviction is LRU ordered by *virtual* access
time: entries move to the tail of an ``OrderedDict`` on every hit, so
the eviction order is a pure function of the request sequence — no wall
clock, no hash-order dependence.

Tier 2 — :class:`LayerBlockCache` — is the existing per-stage
:class:`~repro.core.context_manager.StageContextManager` repurposed
read-mostly: shared-prefix requests re-use layer blocks already
resident on the leased GPUs, paying PCIe copies only for the tail
blocks that differ.  Serving never writes parameters, so releases are
always clean (``dirty=False``) and eviction never pays write-back —
the read-mostly half of the training cache's contract.  Disabling the
tier (``enabled=False``) reclaims every stage cache after each batch,
which is exactly the "no reuse" baseline the benchmark compares
against.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Optional, Sequence

from repro.core.context_manager import StageContextManager
from repro.nn.parameter_store import LayerId
from repro.supernet.subnet import Subnet

__all__ = ["LayerBlockCache", "ResultCache", "subnet_digest"]


def subnet_digest(space_name: str, subnet: Subnet) -> str:
    """Stable cache key for one architecture: space + full choice path.

    Independent of ``subnet_id`` (two users asking for the same path
    must hit the same entry) and of Python's per-process hash seed.
    """
    payload = space_name + ":" + "-".join(str(c) for c in subnet.choices)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Digest-keyed score memo with LRU-by-virtual-time eviction."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, digest: str) -> Optional[float]:
        """Look up a digest; a hit refreshes its LRU position."""
        if digest in self._entries:
            self._entries.move_to_end(digest)
            self.hits += 1
            return self._entries[digest]
        self.misses += 1
        return None

    def put(self, digest: str, score: float) -> None:
        if not self.enabled:
            return
        if digest in self._entries:
            self._entries.move_to_end(digest)
            self._entries[digest] = score
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[digest] = score

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LayerBlockCache:
    """Per-stage parameter residency for read-mostly batch scoring."""

    def __init__(
        self, contexts: Sequence[StageContextManager], enabled: bool = True
    ) -> None:
        self.contexts = list(contexts)
        self.enabled = enabled

    def prefetch(
        self, stage_layers: Sequence[Sequence[LayerId]], now: float
    ) -> None:
        """Warm each stage with its share of one architecture's layers."""
        for context, layers in zip(self.contexts, stage_layers):
            context.prefetch(layers, now)

    def after_batch(self, now: float) -> None:
        """Post-batch hook: with the tier disabled, drop all residency
        so the next batch re-pays every copy (the no-reuse baseline)."""
        if not self.enabled:
            for context in self.contexts:
                context.reclaim(now)

    # ------------------------------------------------------------------
    def hits(self) -> int:
        return sum(context.hits for context in self.contexts)

    def misses(self) -> int:
        return sum(context.misses for context in self.contexts)

    def hit_rate(self) -> float:
        total = self.hits() + self.misses()
        return self.hits() / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits(),
            "misses": self.misses(),
            "fetch_bytes": sum(c.fetch_bytes for c in self.contexts),
            "peak_resident_bytes": max(
                (c.peak_resident_bytes for c in self.contexts), default=0
            ),
            "resident_layers": sum(
                c.resident_layer_count() for c in self.contexts
            ),
        }
