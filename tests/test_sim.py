"""Simulator tests: event ordering, devices, cluster, traces."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, SimulationError
from repro.sim import (
    Cluster,
    ClusterSpec,
    CopyEngine,
    EventQueue,
    ExecutionTrace,
    Link,
    SimulationEngine,
)


# ----------------------------------------------------------------------
# event queue
# ----------------------------------------------------------------------
def test_events_fire_in_time_order():
    queue = EventQueue()
    fired = []
    queue.schedule(3.0, lambda: fired.append("c"))
    queue.schedule(1.0, lambda: fired.append("a"))
    queue.schedule(2.0, lambda: fired.append("b"))
    while True:
        event = queue.pop()
        if event is None:
            break
        event.callback()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_priority_then_sequence():
    queue = EventQueue()
    fired = []
    queue.schedule(1.0, lambda: fired.append("late"), priority=1)
    queue.schedule(1.0, lambda: fired.append("first"), priority=0)
    queue.schedule(1.0, lambda: fired.append("second"), priority=0)
    for _ in range(3):
        queue.pop().callback()
    assert fired == ["first", "second", "late"]


def test_cannot_schedule_in_past():
    queue = EventQueue()
    queue.schedule(5.0, lambda: None)
    queue.pop()
    with pytest.raises(ValueError):
        queue.schedule(1.0, lambda: None)


def test_cancelled_events_skipped():
    queue = EventQueue()
    event = queue.schedule(1.0, lambda: None)
    event.cancel()
    assert queue.pop() is None
    assert len(queue) == 0


def test_engine_runs_chained_events():
    engine = SimulationEngine()
    fired = []

    def first():
        fired.append(("first", engine.now))
        engine.schedule_after(2.0, second)

    def second():
        fired.append(("second", engine.now))

    engine.schedule(1.0, first)
    end = engine.run()
    assert fired == [("first", 1.0), ("second", 3.0)]
    assert end == 3.0


def test_engine_until_budget():
    engine = SimulationEngine()
    engine.schedule(10.0, lambda: None)
    assert engine.run(until=5.0) == 0.0
    assert engine.run() == 10.0


def test_engine_rejects_a_nan_cut():
    """``time > nan`` is False: accepted, the cut would never trip and the
    run would go to quiescence — the twin of ``schedule(nan)``."""
    engine = SimulationEngine()
    fired = []
    engine.schedule(10.0, lambda: fired.append(engine.now))
    with pytest.raises(ValueError, match="nan"):
        engine.run(until=float("nan"))
    assert fired == [] and engine.now == 0.0 and len(engine.queue) == 1
    assert engine.run(until=float("inf")) == 10.0  # +inf is an honest "no cut"


def test_engine_event_budget_guards_livelock():
    engine = SimulationEngine(max_events=10)

    def loop():
        engine.schedule_after(0.0, loop)

    engine.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        engine.run()
    # the budget check runs BEFORE firing the over-budget event: exactly
    # max_events callbacks executed, never max_events + 1
    assert engine.events_processed == 10


def test_engine_budget_not_charged_for_unfired_events():
    engine = SimulationEngine(max_events=5)
    fired = []
    for i in range(8):
        engine.schedule(float(i), lambda i=i: fired.append(i))
    with pytest.raises(SimulationError):
        engine.run()
    assert fired == [0, 1, 2, 3, 4]
    assert engine.events_processed == 5


# ----------------------------------------------------------------------
# devices
# ----------------------------------------------------------------------
def test_copy_engine_fifo_queueing():
    engine = CopyEngine(gpu_id=0, bandwidth_bytes_per_ms=100.0)
    first = engine.enqueue(1000, now=0.0)  # 10 ms
    second = engine.enqueue(500, now=0.0)  # queued behind: ends at 15
    assert first == 10.0
    assert second == 15.0
    assert engine.total_copies == 2
    # idle gap: a copy at t=100 starts immediately
    assert engine.enqueue(100, now=100.0) == 101.0


def test_copy_engine_would_complete_does_not_enqueue():
    engine = CopyEngine(gpu_id=0, bandwidth_bytes_per_ms=100.0)
    # the completion time a copy would get, read off the engine's state
    t = max(0.0, engine.next_free) + 1000 / engine.bandwidth_bytes_per_ms
    assert t == 10.0
    assert engine.next_free == 0.0
    assert engine.enqueue(1000, now=0.0) == t


def test_link_transfer_includes_latency():
    link = Link(src=0, dst=1, bandwidth_bytes_per_ms=100.0, latency_ms=0.5)
    assert link.transfer(1000, now=0.0) == 10.5
    # FIFO: second transfer waits for the pipe, latency applies once each
    assert link.transfer(1000, now=0.0) == 20.5


# ----------------------------------------------------------------------
# cluster
# ----------------------------------------------------------------------
def test_cluster_defaults_match_testbed():
    spec = ClusterSpec()
    assert spec.num_gpus == 8
    assert spec.gpu_memory_bytes == 11 * 1_000_000_000
    cluster = Cluster(spec)
    assert len(cluster.copy_engines) == 8
    assert len(cluster.forward_links) == 7
    assert cluster.forward_link(0).dst == 1
    assert cluster.backward_link(3).dst == 2


def test_cluster_spec_validation():
    with pytest.raises(ConfigError):
        ClusterSpec(num_gpus=0)
    with pytest.raises(ConfigError):
        ClusterSpec(gpu_memory_bytes=10, reserved_bytes=20)


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def test_trace_bubble_and_alu():
    trace = ExecutionTrace(num_gpus=2)
    trace.record_interval(0, 0.0, 10.0, "fwd", 0)
    trace.record_interval(1, 0.0, 5.0, "bwd", 0)
    # makespan 10: gpu0 fully busy, gpu1 half busy -> bubble 0.25
    assert trace.bubble_ratio() == pytest.approx(0.25)
    assert trace.total_alu_utilization(1.0) == pytest.approx(1.5)
    assert trace.total_alu_utilization(0.5) == pytest.approx(0.75)


def test_trace_stall_not_counted_as_compute():
    trace = ExecutionTrace(num_gpus=1)
    trace.record_interval(0, 0.0, 4.0, "stall", 0)
    trace.record_interval(0, 4.0, 8.0, "fwd", 0)
    assert trace.busy_time(0, compute_only=True) == 4.0
    assert trace.busy_time(0, compute_only=False) == 8.0
    assert trace.stall_time_total == 4.0


def test_trace_cache_and_throughput():
    trace = ExecutionTrace(num_gpus=1)
    assert trace.cache_hit_rate() is None
    trace.record_cache_access(True, 9)
    trace.record_cache_access(False, 1)
    assert trace.cache_hit_rate() == pytest.approx(0.9)
    trace.record_interval(0, 0.0, 1000.0, "fwd", 0)
    trace.record_subnet_complete(0, 500.0)
    trace.record_subnet_complete(1, 1000.0)
    # 2 subnets x 32 samples over 1 virtual second
    assert trace.throughput_samples_per_sec(32) == pytest.approx(64.0)


def test_trace_rejects_negative_interval():
    trace = ExecutionTrace(num_gpus=1)
    with pytest.raises(ValueError):
        trace.record_interval(0, 5.0, 4.0, "fwd", 0)


@pytest.mark.parametrize(
    "start, end",
    [
        (float("nan"), 1.0),
        (1.0, float("nan")),
        (1.0, float("inf")),
        (float("-inf"), 1.0),
        (float("inf"), float("inf")),
    ],
)
def test_trace_rejects_non_finite_interval(start, end):
    """``end < start`` is False for NaN, so the old guard let it in and
    left ``intervals_by_gpu``'s order and ``bubble_ratio`` undefined."""
    trace = ExecutionTrace(num_gpus=2)
    with pytest.raises(ValueError, match=re.escape(f"{start}..{end}")):
        trace.record_interval(0, start, end, "fwd", 0)
    assert trace.intervals == [] and trace.end_time == 0.0
    trace.record_interval(0, 1.0, 1.0, "stall", 0)  # empty is not malformed
    assert len(trace.intervals) == 1 and trace.bubble_ratio() == 1.0
