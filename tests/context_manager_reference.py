"""The stage context manager as it was before its repeated attrs were
shared.

Until then every ``cache_access`` row carried a tuple of its own.  This
module is that ``repro.core.context_manager``, copied verbatim below
this docstring, so ``tests/test_context_manager_reference.py`` can drive
it and the live manager through one drawn op stream and demand the same
trace columns (by ``repr``), counters and LRU order.  The live manager
has since dropped ``is_resident`` and ``peek_residency``, which only
tests read; the module-level functions of those names at the end read
the same entries of either manager.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.nn.parameter_store import LayerId
from repro.sim.devices import CopyEngine
from repro.sim.trace import ExecutionTrace
from repro.supernet.supernet import Supernet

__all__ = [
    "StageContextManager", "FetchPlan", "stage_cache_bytes", "is_resident", "peek_residency",
]


def stage_cache_bytes(
    supernet: Supernet, cache_subnets: float, stages: int
) -> int:
    """One stage's cache capacity: ``cache_subnets`` stage-shares of the
    expected fp32 parameter footprint of a subnet — the sizing rule the
    training engine, the serving engine and the chaos memory-cap
    invariant share."""
    share = supernet.expected_subnet_param_count() * 4 / stages
    return int(cache_subnets * share)


class FetchPlan(NamedTuple):
    """Outcome of requesting residency for a task's layer set."""

    ready_time: float  # when every layer will be resident
    hits: int
    misses: int
    fetched_bytes: int

    @property
    def is_hit(self) -> bool:
        return self.misses == 0


class _CacheEntry:
    __slots__ = ("nbytes", "pins", "dirty", "ready_at")

    def __init__(self, nbytes: int, ready_at: float) -> None:
        self.nbytes = nbytes
        self.pins = 0
        self.dirty = False
        self.ready_at = ready_at  # copy completion time


_Attrs = Tuple[Tuple[str, object], ...]


class _LayerFacts:
    """What never varies about one layer's cache events.

    ``TraceEvent.attrs`` is a tuple of immutable pairs, so every event
    of a layer can share the same pairs — and, where nothing else
    varies, the same attrs tuple.
    """

    __slots__ = ("nbytes", "head", "land", "evicted")

    def __init__(self, layer: LayerId, nbytes: int) -> None:
        self.nbytes = nbytes
        #: the three pairs every cache event of this layer starts with
        self.head: _Attrs = (
            ("block", layer[0]),
            ("choice", layer[1]),
            ("nbytes", nbytes),
        )
        #: ``prefetch_land`` attrs, indexed by ``demand``
        #: (``prefetch_issue`` appends the one pair that varies, ``land``)
        self.land: Tuple[_Attrs, _Attrs] = (
            self.head + (("demand", False),),
            self.head + (("demand", True),),
        )
        #: ``eviction`` attrs: reason -> (clean, dirty), built on first use
        self.evicted: Dict[str, Tuple[_Attrs, _Attrs]] = {}


class StageContextManager:
    """LRU parameter cache for one pipeline stage."""

    def __init__(
        self,
        stage: int,
        supernet: Supernet,
        copy_engine: CopyEngine,
        capacity_bytes: int,
        trace: Optional[ExecutionTrace] = None,
    ) -> None:
        self.stage = stage
        self.supernet = supernet
        self.copy_engine = copy_engine
        self.capacity_bytes = capacity_bytes
        self.trace = trace
        self._entries: "OrderedDict[LayerId, _CacheEntry]" = OrderedDict()
        #: per-layer memo — ``_fetch`` runs ~6 times per task, and both the
        #: profile lookup chain and rebuilding attrs that are constants
        #: of the layer are measurable at that rate
        self._facts: Dict[LayerId, _LayerFacts] = {}
        self.resident_bytes = 0
        self.peak_resident_bytes = 0
        self.writeback_bytes = 0
        self.fetch_bytes = 0
        self.prefetch_requests = 0
        self.hits = 0
        self.misses = 0
        #: degraded-mode flag (repro.ft.degradation): while True,
        #: speculative prefetches are suppressed so demand fetches own
        #: the (stalled) copy engine
        self.throttled = False
        self.throttled_prefetches = 0

    # ------------------------------------------------------------------
    # residency primitives
    # ------------------------------------------------------------------
    def is_resident(self, layer: LayerId, now: float) -> bool:
        entry = self._entries.get(layer)
        return entry is not None and entry.ready_at <= now

    def _evict_for(self, needed: int, now: float) -> None:
        """Evict LRU unpinned layers until ``needed`` bytes fit.

        Over-capacity with everything pinned is tolerated (the real system
        delays copies in that case; modelling the delay as an immediate
        grow keeps the simulation deadlock-free and errs *against*
        NASPipe's reported memory efficiency).
        """
        if needed > self.capacity_bytes:
            return  # single working set larger than cache: run oversubscribed
        self._evict_lru(self.resident_bytes + needed - self.capacity_bytes, now, "lru")

    def _evict_lru(self, excess: float, now: float, reason: str) -> None:
        """Evict unpinned, landed entries in LRU order until ``excess``
        bytes are freed (or none is left).  Victims are chosen on one pass
        over the live ``OrderedDict`` — which may not change while it is
        iterated — and dropped afterwards, in the order they were met."""
        victims: List[Tuple[LayerId, _CacheEntry]] = []
        for layer, entry in self._entries.items():
            if excess <= 0:
                break
            if entry.pins > 0 or entry.ready_at > now:
                continue
            victims.append((layer, entry))
            excess -= entry.nbytes
        for layer, entry in victims:
            del self._entries[layer]
            self.resident_bytes -= entry.nbytes
            self._record_eviction(layer, entry, now, reason)
            if entry.dirty:
                # Write the updated parameters back to pinned CPU memory.
                self.copy_engine.enqueue(entry.nbytes, now)
                self.writeback_bytes += entry.nbytes

    def _record_eviction(
        self, layer: LayerId, entry: _CacheEntry, now: float, reason: str
    ) -> None:
        if self.trace is not None:
            facts = self._facts[layer]
            by_dirty = facts.evicted.get(reason)
            if by_dirty is None:
                by_dirty = facts.evicted[reason] = (
                    facts.head + (("dirty", False), ("reason", reason)),
                    facts.head + (("dirty", True), ("reason", reason)),
                )
            self.trace.append_event(
                "eviction", now, self.stage, -1, by_dirty[entry.dirty]
            )

    def _fetch(
        self, layer: LayerId, now: float, demand: bool = False
    ) -> _CacheEntry:
        """Start an async copy of ``layer``; returns its new cache entry.

        ``demand`` marks copies started by a task's own acquire (miss on
        the critical path) as opposed to predictor prefetches; the flag
        only annotates the emitted ``prefetch_issue``/``prefetch_land``
        events, the copy mechanics are identical.
        """
        facts = self._facts.get(layer)
        if facts is None:
            facts = self._facts[layer] = _LayerFacts(
                layer, self.supernet.profile(layer).param_bytes
            )
        nbytes = facts.nbytes
        if self.resident_bytes + nbytes > self.capacity_bytes:
            self._evict_for(nbytes, now)
        completion = self.copy_engine.enqueue(nbytes, now)
        entry = self._entries[layer] = _CacheEntry(nbytes, completion)
        self.resident_bytes += nbytes
        if self.resident_bytes > self.peak_resident_bytes:
            self.peak_resident_bytes = self.resident_bytes
        self.fetch_bytes += nbytes
        if self.trace is not None:
            landed = facts.land[demand]
            block, choice, size, demanded = landed
            self.trace.append_event(
                "prefetch_issue",
                now,
                self.stage,
                -1,
                (block, choice, size, demanded, ("land", completion)),
            )
            self.trace.append_event(
                "prefetch_land", completion, self.stage, -1, landed
            )
        return entry

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def peek_residency(
        self, layers: Iterable[LayerId], now: float
    ) -> Tuple[int, int]:
        """Count ``(resident, absent_or_in_flight)`` without side effects.

        Unlike :meth:`acquire_for_task` this neither pins, fetches,
        touches LRU order nor increments the hit/miss counters — it is a
        pure observation, so callers (the serving plane's locality
        accounting, admission heuristics) can inspect the cache without
        perturbing its deterministic eviction order.
        """
        resident = 0
        absent = 0
        for layer in layers:
            entry = self._entries.get(layer)
            if entry is not None and entry.ready_at <= now:
                resident += 1
            else:
                absent += 1
        return resident, absent

    def prefetch(self, layers: Iterable[LayerId], now: float) -> float:
        """Asynchronously fetch any non-resident layers (predictor path).

        Returns the time the whole group becomes resident.
        """
        self.prefetch_requests += 1
        ready = now
        entries = self._entries
        for layer in layers:
            entry = entries.get(layer)
            if entry is not None:
                entries.move_to_end(layer)
            elif self.throttled:
                # Copy engine stalled: skip the speculative copy.  The
                # layer will be demand-fetched by acquire_for_task, which
                # then queues behind no prefetch traffic.
                self.throttled_prefetches += 1
                continue
            else:
                entry = self._fetch(layer, now)
            if entry.ready_at > ready:
                ready = entry.ready_at
        return ready

    def acquire_for_task(
        self, layers: Iterable[LayerId], now: float
    ) -> FetchPlan:
        """Demand residency for a task's layers; pins them; counts hits.

        Layers already resident (copy landed) are hits; layers absent or
        still in flight are misses and the task must stall until
        ``ready_time``.  ``fetched_bytes`` counts only copies *started by
        this call* — a miss on a still-in-flight prefetch stalls but does
        not re-pay the copy, so those bytes are intentionally excluded
        (they were charged to ``fetch_bytes`` when the prefetch issued).
        """
        hits = 0
        misses = 0
        fetched = 0
        ready = now
        entries = self._entries
        for layer in layers:
            entry = entries.get(layer)
            if entry is not None and entry.ready_at <= now:
                hits += 1
                entries.move_to_end(layer)
            else:
                misses += 1
                if entry is None:
                    entry = self._fetch(layer, now, demand=True)
                    fetched += entry.nbytes
                else:
                    entries.move_to_end(layer)
                if entry.ready_at > ready:
                    ready = entry.ready_at
            entry.pins += 1
        self.hits += hits
        self.misses += misses
        trace = self.trace
        if trace is not None:
            trace.cache_hits += hits
            trace.cache_misses += misses
            trace.append_event(
                "cache_access",
                now,
                self.stage,
                -1,
                (("hits", hits), ("misses", misses)),
            )
        return FetchPlan(ready, hits, misses, fetched)

    def release_after_task(
        self, layers: Iterable[LayerId], now: float, dirty: bool
    ) -> None:
        """Unpin a task's layers; mark dirty after a backward (WRITE)."""
        for layer in layers:
            entry = self._entries.get(layer)
            if entry is None:
                continue
            entry.pins = max(0, entry.pins - 1)
            if dirty:
                entry.dirty = True
        # Opportunistically shrink back under capacity.
        if self.resident_bytes > self.capacity_bytes:
            self._evict_for(0, now)

    def evict_subnet(self, layers: Iterable[LayerId], now: float) -> None:
        """Eagerly evict a finished subnet's layers (paper: EVICT call).

        Entries whose copy has not landed yet (``ready_at > now``) are
        skipped: evicting an in-flight prefetch would drop the entry
        while its bytes are still crossing PCIe, and the next acquire
        would pay for the same copy twice.
        """
        for layer in layers:
            entry = self._entries.get(layer)
            if entry is None or entry.pins > 0 or entry.ready_at > now:
                continue
            self._entries.pop(layer)
            self.resident_bytes -= entry.nbytes
            self._record_eviction(layer, entry, now, "evict")
            if entry.dirty:
                self.copy_engine.enqueue(entry.nbytes, now)
                self.writeback_bytes += entry.nbytes

    # ------------------------------------------------------------------
    def oversubscription(self) -> float:
        """Resident bytes over capacity (1.0 = exactly full)."""
        if self.capacity_bytes <= 0:
            return float("inf") if self.resident_bytes else 0.0
        return self.resident_bytes / self.capacity_bytes

    def reclaim(self, now: float) -> int:
        """Best-effort eviction of unpinned entries (OOM recovery path).

        Returns bytes freed.  Mirrors the real system's reaction to a
        CUDA out-of-memory: drop everything droppable, then retry.
        """
        before = self.resident_bytes
        self._evict_lru(float("inf"), now, "reclaim")
        return before - self.resident_bytes

    def hit_rate(self) -> Optional[float]:
        total = self.hits + self.misses
        if total == 0:
            return None
        return self.hits / total

    def resident_layer_count(self) -> int:
        return len(self._entries)


def is_resident(manager, layer: LayerId, now: float) -> bool:
    """Whether ``layer``'s copy has landed on ``manager``'s stage by ``now``."""
    entry = manager._entries.get(layer)
    return entry is not None and entry.ready_at <= now


def peek_residency(manager, layers: Iterable[LayerId], now: float) -> Tuple[int, int]:
    """``(resident, absent_or_in_flight)`` of ``layers`` at ``now``; reads
    the entries only, so it pins, fetches and counts nothing."""
    landed = [is_resident(manager, layer, now) for layer in layers]
    return sum(landed), len(landed) - sum(landed)
