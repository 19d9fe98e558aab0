"""Stage context manager tests: residency, LRU, pins, hit accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.context_manager import StageContextManager
from repro.sim.devices import CopyEngine
from repro.sim.trace import ExecutionTrace, TraceEvent
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

from context_manager_reference import is_resident, peek_residency
from readback_reference import events_of

#: hypothesis forbids function-scoped fixtures; same space as ``tiny_space``
_PROPERTY_SUPERNET = Supernet(
    get_search_space("NLP.c3").scaled(
        name="tiny", num_blocks=8, choices_per_block=4, functional_width=16
    )
)


@pytest.fixture
def manager(tiny_supernet):
    engine = CopyEngine(gpu_id=0, bandwidth_bytes_per_ms=1_000_000.0)
    capacity = 4 * tiny_supernet.profile((0, 0)).param_bytes
    return StageContextManager(0, tiny_supernet, engine, capacity_bytes=capacity)


def _layer_bytes(supernet: Supernet, layer):
    return supernet.profile(layer).param_bytes


def test_prefetch_makes_layers_resident_later(manager):
    ready = manager.prefetch([(0, 0)], now=0.0)
    assert ready > 0.0
    assert not is_resident(manager, (0, 0), now=0.0)
    assert is_resident(manager, (0, 0), now=ready)


def test_acquire_counts_hit_after_prefetch(manager):
    ready = manager.prefetch([(0, 0)], now=0.0)
    plan = manager.acquire_for_task([(0, 0)], now=ready)
    assert plan.misses == 0
    assert manager.hits == 1 and manager.misses == 0


def test_acquire_counts_miss_and_stalls(manager):
    plan = manager.acquire_for_task([(1, 0)], now=0.0)
    assert plan.misses > 0
    assert plan.ready_time > 0.0
    assert manager.misses == 1


def test_in_flight_prefetch_counts_as_miss_but_no_refetch(manager):
    manager.prefetch([(0, 0)], now=0.0)
    bytes_after_prefetch = manager.fetch_bytes
    plan = manager.acquire_for_task([(0, 0)], now=0.0)  # copy not landed
    assert plan.misses == 1
    assert manager.fetch_bytes == bytes_after_prefetch  # no duplicate copy


def test_lru_eviction_under_pressure(manager, tiny_supernet):
    # Fill beyond capacity with unpinned layers; the oldest must go.
    ready = manager.prefetch([(0, 0), (1, 0), (2, 0), (3, 0)], now=0.0)
    manager.prefetch([(4, 0)], now=ready + 1)
    assert manager.resident_bytes <= manager.capacity_bytes
    assert not is_resident(manager, (0, 0), now=ready + 1000)


def test_pinned_layers_survive_pressure(manager):
    plan = manager.acquire_for_task([(0, 0)], now=0.0)
    ready = plan.ready_time
    manager.prefetch([(1, 0), (2, 0), (3, 0), (4, 0), (5, 0)], now=ready + 1)
    assert is_resident(manager, (0, 0), now=ready + 1000)


def test_release_unpins_and_dirty_writeback_on_evict(manager):
    plan = manager.acquire_for_task([(0, 0)], now=0.0)
    manager.release_after_task([(0, 0)], now=plan.ready_time, dirty=True)
    manager.evict_subnet([(0, 0)], now=plan.ready_time)
    assert manager.writeback_bytes > 0
    assert not is_resident(manager, (0, 0), now=plan.ready_time + 1000)


def test_evict_skips_pinned(manager):
    plan = manager.acquire_for_task([(0, 0)], now=0.0)
    manager.evict_subnet([(0, 0)], now=plan.ready_time)
    assert is_resident(manager, (0, 0), now=plan.ready_time)


def test_clean_evict_no_writeback(manager):
    plan = manager.acquire_for_task([(0, 0)], now=0.0)
    manager.release_after_task([(0, 0)], now=plan.ready_time, dirty=False)
    manager.evict_subnet([(0, 0)], now=plan.ready_time)
    assert manager.writeback_bytes == 0


def test_hit_rate_and_trace_integration(tiny_supernet):
    trace = ExecutionTrace(num_gpus=1)
    engine = CopyEngine(0, 1_000_000.0)
    manager = StageContextManager(
        0, tiny_supernet, engine, capacity_bytes=10**12, trace=trace
    )
    assert manager.hit_rate() is None
    plan = manager.acquire_for_task([(0, 0), (1, 0)], now=0.0)
    manager.release_after_task([(0, 0), (1, 0)], now=plan.ready_time, dirty=False)
    manager.acquire_for_task([(0, 0), (1, 0)], now=plan.ready_time)
    assert manager.hit_rate() == pytest.approx(0.5)
    assert trace.cache_hits == 2 and trace.cache_misses == 2


def test_evict_subnet_skips_in_flight_prefetch(manager):
    # EVICT arriving while the prefetch copy is still crossing PCIe must
    # not drop the entry — otherwise the next acquire pays the copy twice.
    ready = manager.prefetch([(0, 0)], now=0.0)
    fetched_once = manager.fetch_bytes
    manager.evict_subnet([(0, 0)], now=0.0)  # copy not landed yet
    assert is_resident(manager, (0, 0), now=ready)
    plan = manager.acquire_for_task([(0, 0)], now=ready)
    assert plan.misses == 0
    # Single-fetch accounting: one copy ever issued, bytes charged once.
    assert manager.fetch_bytes == fetched_once
    assert manager.copy_engine.total_copies == 1
    # Once the copy has landed (and the layer is unpinned), EVICT works.
    manager.release_after_task([(0, 0)], now=plan.ready_time, dirty=False)
    manager.evict_subnet([(0, 0)], now=plan.ready_time)
    assert not is_resident(manager, (0, 0), now=plan.ready_time + 1000)


def test_acquire_fetched_bytes_excludes_in_flight_prefetch(manager, tiny_supernet):
    # fetched_bytes counts only copies started by the acquire itself;
    # a miss on a still-in-flight prefetch stalls but re-pays nothing.
    manager.prefetch([(0, 0)], now=0.0)
    plan = manager.acquire_for_task([(0, 0), (1, 0)], now=0.0)
    assert plan.misses == 2
    assert plan.fetched_bytes == _layer_bytes(tiny_supernet, (1, 0))
    assert manager.copy_engine.total_copies == 2


def test_oversized_working_set_tolerated(tiny_supernet):
    engine = CopyEngine(0, 1_000_000.0)
    tiny_capacity = 1  # smaller than any layer
    manager = StageContextManager(0, tiny_supernet, engine, tiny_capacity)
    plan = manager.acquire_for_task([(0, 0), (1, 0)], now=0.0)
    assert plan.misses == 2
    # Runs oversubscribed rather than deadlocking.
    assert manager.resident_bytes > tiny_capacity


# ----------------------------------------------------------------------
# per-layer facts: shared attrs must be the attrs a literal build gives
# ----------------------------------------------------------------------
def _traced_manager(supernet, capacity_bytes):
    trace = ExecutionTrace(num_gpus=1)
    manager = StageContextManager(
        3, supernet, CopyEngine(3, 1_000_000.0), capacity_bytes, trace
    )
    return manager, trace


def _exactly(event):
    """Kind, time, stage, attrs order *and* value types (repr tells
    ``True`` from ``1`` and ``2`` from ``2.0``; ``==`` does not)."""
    return repr(event)


@pytest.mark.parametrize("demand", [False, True])
def test_fetch_events_equal_their_literal_form(tiny_supernet, demand):
    nbytes = _layer_bytes(tiny_supernet, (2, 1))
    manager, trace = _traced_manager(tiny_supernet, 4 * nbytes)
    for _ in range(2):  # second round: the memoised attrs, not fresh ones
        if demand:
            manager.acquire_for_task([(2, 1)], now=5.0)
        else:
            manager.prefetch([(2, 1)], now=5.0)
        land = manager.copy_engine.next_free
        issue, landed = trace.events[:2]
        assert _exactly(issue) == _exactly(
            TraceEvent(
                "prefetch_issue", 5.0, 3, -1,
                (("block", 2), ("choice", 1), ("nbytes", nbytes),
                 ("demand", demand), ("land", land)),
            )
        )
        assert _exactly(landed) == _exactly(
            TraceEvent(
                "prefetch_land", land, 3, -1,
                (("block", 2), ("choice", 1), ("nbytes", nbytes), ("demand", demand)),
            )
        )
        manager.release_after_task([(2, 1)], now=land, dirty=False)
        manager.evict_subnet([(2, 1)], now=land)
        trace.events.clear()


@pytest.mark.parametrize("dirty", [False, True])
@pytest.mark.parametrize("reason", ["lru", "evict", "reclaim"])
def test_eviction_events_equal_their_literal_form(tiny_supernet, dirty, reason):
    nbytes = _layer_bytes(tiny_supernet, (1, 2))
    # room for (1, 2) or (4, 0), never both
    manager, trace = _traced_manager(
        tiny_supernet, nbytes + _layer_bytes(tiny_supernet, (4, 0)) - 1
    )
    now = 0.0
    for _ in range(2):
        plan = manager.acquire_for_task([(1, 2)], now=now)
        now = plan.ready_time
        manager.release_after_task([(1, 2)], now=now, dirty=dirty)
        trace.events.clear()
        if reason == "lru":
            manager.prefetch([(4, 0)], now=now)
        elif reason == "evict":
            manager.evict_subnet([(1, 2)], now=now)
        else:
            manager.reclaim(now)
        assert _exactly(trace.events[0]) == _exactly(
            TraceEvent(
                "eviction", now, 3, -1,
                (("block", 1), ("choice", 2), ("nbytes", nbytes),
                 ("dirty", dirty), ("reason", reason)),
            )
        )
        now = manager.copy_engine.next_free + 1.0
        manager.reclaim(now)


class _NaiveCache:
    """The cache with nothing remembered: a dict in LRU order whose
    events are built from scratch, kwargs and all, every time."""

    def __init__(self, stage, supernet, copy_engine, capacity):
        self.stage, self.supernet, self.copy, self.capacity = stage, supernet, copy_engine, capacity
        self.entries, self.events, self.throttled = {}, [], False  # layer -> [nbytes, pins, dirty, ready_at]
        self.resident = self.peak = self.writeback = self.fetched = self.hits = self.misses = 0

    def _emit(self, kind, time, **attrs):
        self.events.append(TraceEvent(kind, time, self.stage, -1, tuple(attrs.items())))

    def _sweep(self, layers, now, reason, needed=None):
        for layer in list(layers):
            if needed is not None and self.resident + needed <= self.capacity:
                break
            nbytes, pins, dirty, ready_at = self.entries.get(layer, (0, 1, False, 0.0))
            if pins == 0 and ready_at <= now:
                del self.entries[layer]
                self.resident -= nbytes
                self._emit("eviction", now, block=layer[0], choice=layer[1], nbytes=nbytes, dirty=dirty, reason=reason)
                if dirty:
                    self.copy.enqueue(nbytes, now)
                    self.writeback += nbytes

    def request(self, layers, now, demand):
        """``prefetch`` (demand False) or ``acquire_for_task`` (True)."""
        hits = 0
        for layer in layers:
            if layer in self.entries:
                self.entries[layer] = self.entries.pop(layer)  # most recently used
                hits += self.entries[layer][3] <= now
            elif demand or not self.throttled:
                nbytes = self.supernet.profile(layer).param_bytes
                if nbytes <= self.capacity:
                    self._sweep(self.entries, now, "lru", needed=nbytes)
                land = self.copy.enqueue(nbytes, now)
                self.entries[layer] = [nbytes, 0, False, land]
                self.resident += nbytes
                self.peak = max(self.peak, self.resident)
                self.fetched += nbytes
                self._emit("prefetch_issue", now, block=layer[0], choice=layer[1], nbytes=nbytes, demand=demand, land=land)
                self._emit("prefetch_land", land, block=layer[0], choice=layer[1], nbytes=nbytes, demand=demand)
            if demand:
                self.entries[layer][1] += 1
        if demand:
            self.hits, self.misses = self.hits + hits, self.misses + len(layers) - hits
            self._emit("cache_access", now, hits=hits, misses=len(layers) - hits)

    def release(self, layers, now, dirty):
        for entry in filter(None, map(self.entries.get, layers)):
            entry[1], entry[2] = max(0, entry[1] - 1), entry[2] or dirty
        self._sweep(self.entries, now, "lru", needed=0)


_LAYERS = [(block, choice) for block in range(4) for choice in range(3)]
_OPS = ("prefetch", "acquire", "release_clean", "release_dirty", "evict", "reclaim", "throttle", "peek")


_NBYTES = _layer_bytes(_PROPERTY_SUPERNET, (0, 0))  # the streams' unit of size and time


def _replay(ops, capacity):
    """Drive the manager and the naive cache through ``ops``; every
    event (by ``repr``), byte count and hit/miss figure must be equal
    after each one."""
    nbytes = _NBYTES
    manager, trace = _traced_manager(_PROPERTY_SUPERNET, capacity)
    naive = _NaiveCache(3, _PROPERTY_SUPERNET, CopyEngine(3, 1_000_000.0), capacity)
    now = 0.0
    for op, layers, copies in ops:
        now += copies * nbytes / 1_000_000.0
        if op == "prefetch":
            manager.prefetch(layers, now)
            naive.request(layers, now, demand=False)
        elif op == "acquire":
            manager.acquire_for_task(layers, now)
            naive.request(layers, now, demand=True)
        elif op.startswith("release"):
            manager.release_after_task(layers, now, dirty=op == "release_dirty")
            naive.release(layers, now, dirty=op == "release_dirty")
        elif op == "evict":
            manager.evict_subnet(layers, now)
            naive._sweep(layers, now, "evict")
        elif op == "reclaim":
            manager.reclaim(now)
            naive._sweep(naive.entries, now, "reclaim")
        elif op == "throttle":
            manager.throttled = naive.throttled = not naive.throttled
        else:  # an observation: nothing below may notice it happened
            resident, absent = peek_residency(manager, layers, now)
            assert resident == sum(
                layer in naive.entries and naive.entries[layer][3] <= now
                for layer in layers
            )
            assert resident + absent == len(layers)
        assert repr(trace.events) == repr(naive.events)
        assert (
            manager.resident_bytes, manager.peak_resident_bytes, manager.hits,
            manager.misses, manager.writeback_bytes, manager.fetch_bytes,
        ) == (
            naive.resident, naive.peak, naive.hits,
            naive.misses, naive.writeback, naive.fetched,
        )
        assert manager.copy_engine.next_free == naive.copy.next_free
        assert list(manager._entries) == list(naive.entries)  # LRU order
    return manager, trace


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_OPS),
            st.lists(st.sampled_from(_LAYERS), max_size=4, unique=True),
            st.sampled_from([0.0, 0.3, 2.0, 10.0]),
        ),
        max_size=40,
    )
)
def test_op_streams_match_the_naive_cache(ops):
    """Capacity of about three layers: LRU evictions of clean and dirty
    entries, walks that skip pinned and still-in-flight ones, all occur;
    every event, byte count and hit/miss figure must equal the memo-free
    reference after each op."""
    _replay(ops, 3 * _NBYTES)


_WIDE_LAYERS = [(block, choice) for block in range(6) for choice in range(4)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_OPS + ("acquire", "release_dirty", "prefetch")),
            st.lists(st.sampled_from(_WIDE_LAYERS), max_size=6, unique=True),
            st.sampled_from([0.0, 0.0, 0.3, 1.0, 10.0]),
        ),
        max_size=70,
    )
)
def test_wide_op_streams_interleave_pinned_in_flight_and_dirty(ops):
    """24 layers whose sizes span 0.4-38 MB against 115 MB of room, and
    longer streams: one eviction walk takes several victims and meets pinned, in-flight, dirty and clean entries *interleaved*
    in LRU order, and ``reclaim`` runs over the same mix — the victims,
    their order and the write-backs between them must be the naive
    copy-then-skip loop's."""
    _replay(ops, 4 * _NBYTES)


def _mixed_lru_state():
    """Seven mid-sized layers (8-11 MB) filling the cache exactly.  LRU
    order, oldest first: clean A, pinned B, dirty C, pinned+dirty D,
    clean E, dirty F, then G still in flight.  Ops are (name, layers,
    copy-times to advance first)."""
    layers = a, b, c, d, e, f, g = [(block, 1) for block in range(7)]
    capacity = sum(_layer_bytes(_PROPERTY_SUPERNET, layer) for layer in layers)
    return layers, capacity, [
        ("acquire", [a, b, c, d, e, f], 0.0),
        ("release_clean", [a, e], 20.0),
        ("release_dirty", [c, f], 0.0),
        ("acquire", [d], 0.0),  # a second pin
        ("release_dirty", [d], 0.0),  # dirty, still pinned once
        ("prefetch", [a, b, c, d, e, f], 0.0),  # touch: LRU order a..f again
        ("prefetch", [g], 0.0),  # in flight at every ``now`` below
    ]


def _evictions(trace):
    return [
        (dict(event.attrs)["block"], dict(event.attrs)["dirty"])
        for event in events_of(trace, "eviction")
    ]


def test_one_lru_walk_skips_pinned_and_in_flight_between_victims():
    (a, b, c, d, e, f, g), capacity, setup = _mixed_lru_state()
    # (7, 0) is 24.2 MB: a + c + e (24.7 MB) cover it, so one walk takes a
    # (clean), c (dirty: its write-back queues before e's eviction) and
    # e, steps over pinned b and d between them, and stops before f
    manager, trace = _replay(setup + [("acquire", [(7, 0)], 0.0)], capacity)
    assert _evictions(trace) == [(0, False), (2, True), (4, False)]
    assert list(manager._entries) == [b, d, f, g, (7, 0)]
    assert manager.writeback_bytes == _layer_bytes(_PROPERTY_SUPERNET, c)
    # (7, 3) is 40.5 MB: more than every droppable entry together, so the
    # walk runs to the end of the LRU and the cache is left oversubscribed
    manager, trace = _replay(setup + [("acquire", [(7, 3)], 0.0)], capacity)
    assert _evictions(trace) == [(0, False), (2, True), (4, False), (5, True)]
    assert list(manager._entries) == [b, d, g, (7, 3)]
    assert manager.oversubscription() > 1.0


def test_reclaim_over_the_same_mix_drops_exactly_the_droppable():
    (a, b, c, d, e, f, g), capacity, setup = _mixed_lru_state()
    manager, trace = _replay(setup + [("reclaim", [], 0.0)], capacity)
    assert list(manager._entries) == [b, d, g]  # pinned, pinned, in flight
    assert _evictions(trace) == [(0, False), (2, True), (4, False), (5, True)]
    # once G has landed and B, D are released, nothing survives a reclaim
    landed = manager.copy_engine.next_free
    manager.release_after_task([b, d], landed, dirty=False)
    assert manager.reclaim(landed) > 0
    assert manager.resident_layer_count() == 0 and manager.resident_bytes == 0
