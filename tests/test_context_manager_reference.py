"""The stage context manager against its copy from before attrs sharing.

``tests/context_manager_reference.py`` keeps the manager as it was when
every ``cache_access`` row built its own attrs tuple.  One drawn op
stream — prefetches, acquires, dirty or clean releases, subnet
evictions, reclaims and throttle toggles over drawn layers, times and
capacities — drives both.  Every return value, the trace columns (by
``repr``, so a ``True`` turned ``1`` or an ``int`` turned ``float``
shows), the hit/miss and byte counters and the LRU order must be equal.
"""

from hypothesis import given, settings, strategies as st

from context_manager_reference import StageContextManager as ReferenceManager
from repro.core.context_manager import StageContextManager
from repro.sim.devices import CopyEngine
from repro.sim.trace import ExecutionTrace
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

_SUPERNET = Supernet(
    get_search_space("NLP.c3").scaled(
        name="tiny", num_blocks=8, choices_per_block=4, functional_width=16
    )
)
#: the largest layer's bytes: one copy lands within 1 ms at this bandwidth
_UNIT = max(
    _SUPERNET.profile((block, choice)).param_bytes
    for block in range(8)
    for choice in range(4)
)

_LAYERS = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)), max_size=5)
_OP = st.one_of(
    st.tuples(st.just("prefetch"), _LAYERS),
    st.tuples(st.just("acquire"), _LAYERS),
    st.tuples(st.just("release"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("evict"), _LAYERS),
    st.tuples(st.just("reclaim")),
    st.tuples(st.just("throttle"), st.booleans()),
)
_STEPS = st.lists(st.tuples(st.sampled_from([0.0, 0.25, 1.0, 4.0]), _OP), max_size=40)


def _drive(manager_type, capacity: int, steps):
    """Run ``steps`` on a fresh manager; its outputs and the manager."""
    trace = ExecutionTrace(num_gpus=1)
    manager = manager_type(
        0, _SUPERNET, CopyEngine(gpu_id=0, bandwidth_bytes_per_ms=float(_UNIT)), capacity, trace
    )
    now, held, outputs = 0.0, [], []
    for dt, (op, *args) in steps:
        now += dt
        if op == "prefetch":
            outputs.append(manager.prefetch(args[0], now))
        elif op == "acquire":
            outputs.append(tuple(manager.acquire_for_task(args[0], now)))
            held.append(args[0])
        elif op == "release" and held:
            manager.release_after_task(held.pop(args[0] % len(held)), now, dirty=args[1])
        elif op == "evict":
            manager.evict_subnet(args[0], now)
        elif op == "reclaim":
            outputs.append(manager.reclaim(now))
        elif op == "throttle":
            manager.throttled = args[0]
    return outputs, manager


def _state(manager) -> tuple:
    trace, copies = manager.trace, manager.copy_engine
    return (
        repr(trace.events.kind),
        repr(trace.events.time),
        repr(trace.events.stage),
        repr(trace.events.subnet_id),
        repr(trace.events.attrs),
        (trace.cache_hits, trace.cache_misses),
        (manager.hits, manager.misses, manager.fetch_bytes, manager.writeback_bytes),
        (manager.resident_bytes, manager.peak_resident_bytes),
        (manager.prefetch_requests, manager.throttled_prefetches),
        (copies.next_free, copies.total_bytes_copied, copies.total_copies),
        [
            (layer, entry.nbytes, entry.pins, entry.dirty, entry.ready_at)
            for layer, entry in manager._entries.items()
        ],
    )


@settings(max_examples=200, deadline=None)
@given(capacity_units=st.integers(0, 10), steps=_STEPS)
def test_a_drawn_op_stream_matches_the_reference_manager(capacity_units, steps):
    capacity = capacity_units * _UNIT // 2
    outputs, manager = _drive(StageContextManager, capacity, steps)
    expected_outputs, reference = _drive(ReferenceManager, capacity, steps)
    assert repr(outputs) == repr(expected_outputs)
    assert _state(manager) == _state(reference)
