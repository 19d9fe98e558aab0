"""Scheduler-scaling microbenchmark (paper §3.2's flat-cost claim).

Drives the readiness-index scheduler over 100→1000-subnet chained
streams — each subnet the previous one with one block mutated, so nearly
half of all SCHEDULE() calls find every queued subnet waiting on an
in-flight predecessor — and asserts its mean per-call cost, timed from
outside, stays flat (within 2×) from the shortest to the longest stream.  That the index answers exactly what rescanning those
lists would is ``tests/test_scheduler_equivalence.py``'s job.
"""

from __future__ import annotations

from repro.core.scheduler import CspScheduler

from conftest import ScheduleStopwatch
from scheduler_reference import drive_scheduler_stream

STREAM_LENS = (100, 300, 1000)
#: repeats per point; the minimum mean is kept to suppress timer noise
_REPEATS = 3


def _mean_call_us() -> dict:
    """Best mean µs/call per stream length; the repeats cycle through the
    lengths, so a drift in machine speed touches every point alike."""
    best = dict.fromkeys(STREAM_LENS, float("inf"))
    for _ in range(_REPEATS):
        for stream_len in STREAM_LENS:
            timed = ScheduleStopwatch(CspScheduler())
            drive_scheduler_stream(timed, stream_len, chained=True)
            assert timed.ready_pops >= stream_len - 2
            best[stream_len] = min(best[stream_len], timed.mean_call_s * 1e6)
    return best


def test_scheduler_scaling(benchmark):
    means = benchmark.pedantic(_mean_call_us, rounds=1, iterations=1)
    flatness = max(means.values()) / max(min(means.values()), 1e-9)
    print()
    for stream_len, mean in means.items():
        print(f"index @ {stream_len:>5d} subnets: {mean:6.2f} µs/call")
    print(f"flatness (max/min): {flatness:.2f}x")
    assert flatness < 2.0, means
