"""Terminal trace visualisation: :func:`ascii_gantt` renders per-GPU
timelines with forward/backward/stall marks (used by the Figure 1
experiment) and :func:`utilization_sparklines` per-GPU busy fractions.
The Chrome / Perfetto export is :func:`repro.obs.export_chrome_trace`.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.trace import ExecutionTrace

__all__ = ["ascii_gantt", "utilization_sparklines"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


def ascii_gantt(
    trace: ExecutionTrace,
    width: int = 100,
    start: float = 0.0,
    end: Optional[float] = None,
) -> str:
    """Render per-GPU timelines over ``[start, end)`` virtual time.

    Digits mark forwards (subnet id mod 10), letters mark backwards,
    ``.`` marks swap stalls.
    """
    horizon = end if end is not None else trace.end_time
    span = max(horizon - start, 1e-9)
    lines = []
    for gpu in range(trace.num_gpus):
        cells = [" "] * width
        for interval in trace.intervals:
            if interval.gpu_id != gpu or interval.end <= start:
                continue
            if interval.start >= horizon:
                continue
            lo = int((max(interval.start, start) - start) / span * (width - 1))
            hi = max(
                lo + 1,
                int((min(interval.end, horizon) - start) / span * (width - 1)),
            )
            if interval.kind == "stall":
                mark = "."
            elif interval.kind == "fwd":
                mark = str(interval.subnet_id % 10)
            else:
                mark = chr(ord("a") + interval.subnet_id % 10)
            for position in range(lo, min(hi, width)):
                cells[position] = mark
        lines.append(f"GPU{gpu:<2d}|{''.join(cells)}|")
    lines.append(
        "      digits: fwd of SN(i mod 10); letters: bwd; '.': swap stall"
    )
    return "\n".join(lines)


def utilization_sparklines(trace: ExecutionTrace, buckets: int = 60) -> str:
    """One sparkline per GPU: compute-busy fraction per time bucket."""
    span = max(trace.makespan, 1e-9)
    lines = []
    for gpu in range(trace.num_gpus):
        busy = [0.0] * buckets
        for interval in trace.intervals:
            if interval.gpu_id != gpu or interval.kind == "stall":
                continue
            lo = interval.start / span * buckets
            hi = interval.end / span * buckets
            for bucket in range(int(lo), min(int(hi) + 1, buckets)):
                overlap = min(hi, bucket + 1) - max(lo, bucket)
                if overlap > 0:
                    busy[bucket] += overlap
        marks = "".join(
            _BLOCKS[min(len(_BLOCKS) - 1, int(value * (len(_BLOCKS) - 1)))]
            for value in busy
        )
        lines.append(f"GPU{gpu:<2d} {marks}")
    return "\n".join(lines)
