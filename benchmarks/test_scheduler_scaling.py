"""Scheduler-scaling microbenchmark (paper §3.2's flat-cost claim).

Drives the readiness-index scheduler over 100→1000-subnet streams with a
straggler that finishes only at the end — the regime where the paper's
prefix elimination would never prune — and asserts its mean per-call
cost, timed from outside, stays flat (within 2×) from the shortest to the
longest stream.  That the index answers exactly what rescanning those
lists would is ``tests/test_scheduler_equivalence.py``'s job.
"""

from __future__ import annotations

from repro.core.scheduler import CspScheduler

from conftest import ScheduleStopwatch
from scheduler_reference import drive_scheduler_stream

STREAM_LENS = (100, 300, 1000)
#: repeats per point; the minimum mean is kept to suppress timer noise
_REPEATS = 3


def _mean_call_us(stream_len: int) -> float:
    best = float("inf")
    for _ in range(_REPEATS):
        timed = ScheduleStopwatch(CspScheduler())
        drive_scheduler_stream(timed, stream_len)
        assert timed.ready_pops >= stream_len - 2
        best = min(best, timed.mean_call_s * 1e6)
    return best


def test_scheduler_scaling(benchmark):
    means = benchmark.pedantic(
        lambda: {n: _mean_call_us(n) for n in STREAM_LENS},
        rounds=1, iterations=1,
    )
    flatness = max(means.values()) / max(min(means.values()), 1e-9)
    print()
    for stream_len, mean in means.items():
        print(f"index @ {stream_len:>5d} subnets: {mean:6.2f} µs/call")
    print(f"flatness (max/min): {flatness:.2f}x")
    assert flatness < 2.0, means
