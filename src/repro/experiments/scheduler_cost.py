"""Scheduler cost analysis — backing the paper's §3.2 complexity claim.

The paper argues Algorithm 2 costs O(|L_q|·(|L_f| + m²)) per call, kept
small (<0.01 s) by the finished-list elimination scheme, and therefore
negligible against second-scale subnet executions.  This experiment
measures the real per-call wall time of our scheduler at growing queue
sizes, with and without the elimination scheme's effect (approximated by
letting the stream run long enough for the frontier to matter).

:func:`run_scaling` extends the claim to *stream length*: it races the
incremental readiness index against the rescanning reference
implementation over growing subnet streams (straggler-pinned frontier,
the worst case for scanning), asserts the two are decision-identical,
and packages the result as the ``BENCH_scheduler.json`` payload the
``make bench-scheduler`` target and the CI regression gate consume.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.dependency import DependencyTracker
from repro.core.scheduler import CspScheduler
from repro.profiling import profile_scheduler_stream
from repro.seeding import SeedSequenceTree
from repro.supernet.sampler import SposSampler
from repro.supernet.search_space import get_search_space

__all__ = [
    "SchedulerCostPoint",
    "run",
    "format_text",
    "SchedulerScalingPoint",
    "run_scaling",
    "format_scaling_text",
    "write_bench_json",
    "check_regression",
]


@dataclass
class SchedulerCostPoint:
    queue_size: int
    scenario: str  # "average" (random SPOS queue) | "worst" (all blocked)
    mean_call_us: float
    scans_per_call: float


def _measure(
    subnets, queue_size: int, scenario: str, stages: int, calls: int,
    num_blocks: int,
) -> SchedulerCostPoint:
    tracker = DependencyTracker()
    for subnet in subnets:
        tracker.register(subnet)
    queue = [subnet.subnet_id for subnet in subnets[1:]]
    lookup = {subnet.subnet_id: subnet for subnet in subnets}
    slice_size = num_blocks // stages

    def stage_layers(subnet_id: int):
        return lookup[subnet_id].layers_in_range(0, slice_size)

    scheduler = CspScheduler()
    started = time.perf_counter()
    for _ in range(calls):
        scheduler.schedule(queue, stage_layers, tracker)
    elapsed = time.perf_counter() - started
    return SchedulerCostPoint(
        queue_size=queue_size,
        scenario=scenario,
        mean_call_us=elapsed / calls * 1e6,
        scans_per_call=scheduler.scans / scheduler.calls,
    )


def run(
    space_name: str = "NLP.c1",
    queue_sizes: Optional[List[int]] = None,
    calls_per_point: int = 300,
    stages: int = 8,
    seed: int = 2022,
) -> List[SchedulerCostPoint]:
    from repro.supernet.subnet import Subnet

    space = get_search_space(space_name)
    sampler = SposSampler(space, SeedSequenceTree(seed))
    points: List[SchedulerCostPoint] = []
    for queue_size in queue_sizes or [5, 10, 20, 30, 60]:
        # Average case: a random SPOS queue — the head is usually clear.
        points.append(
            _measure(
                sampler.sample_many(queue_size + 1),
                queue_size,
                "average",
                stages,
                calls_per_point,
                space.num_blocks,
            )
        )
        # Worst case: every queued subnet blocked by subnet 0, so every
        # call scans the full queue and finds nothing.
        identical = [
            Subnet(i, tuple([0] * space.num_blocks))
            for i in range(queue_size + 1)
        ]
        points.append(
            _measure(
                identical, queue_size, "worst", stages, calls_per_point,
                space.num_blocks,
            )
        )
    return points


def format_text(points: List[SchedulerCostPoint]) -> str:
    lines = [
        "Scheduler cost (Algorithm 2) vs queue size — paper claims "
        "<0.01 s per call",
        "",
        f"{'|L_q|':>6s} {'scenario':>9s} {'mean call (µs)':>15s} "
        f"{'scans/call':>11s}",
    ]
    for point in points:
        lines.append(
            f"{point.queue_size:>6d} {point.scenario:>9s} "
            f"{point.mean_call_us:>15.1f} {point.scans_per_call:>11.1f}"
        )
    worst_ms = max(point.mean_call_us for point in points) / 1000.0
    lines.append("")
    lines.append(
        f"worst observed: {worst_ms:.3f} ms/call "
        f"({'within' if worst_ms < 10 else 'OUTSIDE'} the paper's 10 ms bound)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# stream-length scaling: readiness index vs scan reference
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchedulerScalingPoint:
    """One (mode, stream length) cost sample."""

    mode: str
    stream_len: int
    calls: int
    mean_call_us: float
    scans_per_call: float
    ready_pops: int


#: repeats per point; the minimum mean is reported to suppress timer noise
_SCALING_REPEATS = 3


def run_scaling(
    stream_lens: Sequence[int] = (100, 300, 1000),
    modes: Sequence[str] = ("index", "scan"),
    seed: int = 2022,
    repeats: int = _SCALING_REPEATS,
) -> Dict:
    """Race scheduler modes over growing streams; build the bench payload.

    Every mode must produce the identical decision sequence at every
    stream length (``decision_identical``) — the readiness index is an
    optimisation, never a semantic change.  ``index_flatness`` is the
    max/min ratio of the index mode's mean per-call time across stream
    lengths: the paper's flat-cost claim holds when it stays under 2.
    """
    points: List[SchedulerScalingPoint] = []
    decision_identical = True
    for stream_len in stream_lens:
        reference = None
        per_mode_best: Dict[str, SchedulerScalingPoint] = {}
        for mode in modes:
            best = None
            for _ in range(max(1, repeats)):
                profile = profile_scheduler_stream(
                    mode, stream_len, seed=seed
                )
                if reference is None:
                    reference = profile.decisions
                elif profile.decisions != reference:
                    decision_identical = False
                if best is None or profile.mean_call_us < best.mean_call_us:
                    best = profile
            per_mode_best[mode] = SchedulerScalingPoint(
                mode=best.mode,
                stream_len=stream_len,
                calls=best.calls,
                mean_call_us=best.mean_call_us,
                scans_per_call=best.scans_per_call,
                ready_pops=best.ready_pops,
            )
        points.extend(per_mode_best.values())

    def _means(mode: str) -> List[float]:
        return [p.mean_call_us for p in points if p.mode == mode]

    index_means = _means("index")
    scan_means = _means("scan")
    payload: Dict = {
        "benchmark": "scheduler_scaling",
        "seed": seed,
        "stream_lens": list(stream_lens),
        "decision_identical": decision_identical,
        "points": [asdict(p) for p in points],
    }
    if index_means:
        payload["index_flatness"] = max(index_means) / max(
            min(index_means), 1e-9
        )
    if scan_means:
        payload["scan_growth"] = max(scan_means) / max(min(scan_means), 1e-9)
    return payload


def format_scaling_text(payload: Dict) -> str:
    lines = [
        "Scheduler scaling — readiness index vs scan reference "
        "(straggler-pinned frontier)",
        "",
        f"{'mode':>6s} {'stream':>7s} {'calls':>6s} {'mean call (µs)':>15s} "
        f"{'scans/call':>11s}",
    ]
    for point in payload["points"]:
        lines.append(
            f"{point['mode']:>6s} {point['stream_len']:>7d} "
            f"{point['calls']:>6d} {point['mean_call_us']:>15.2f} "
            f"{point['scans_per_call']:>11.1f}"
        )
    lines.append("")
    lines.append(
        "decisions identical across modes: "
        + ("YES" if payload["decision_identical"] else "NO (BUG)")
    )
    if "index_flatness" in payload:
        flat = payload["index_flatness"]
        lines.append(
            f"index per-call flatness (max/min over stream lengths): "
            f"{flat:.2f}x ({'flat' if flat < 2.0 else 'NOT FLAT'})"
        )
    if "scan_growth" in payload:
        lines.append(
            f"scan per-call growth over the same range: "
            f"{payload['scan_growth']:.2f}x"
        )
    return "\n".join(lines)


def write_bench_json(payload: Dict, path) -> Path:
    """Write the scaling payload (BENCH_scheduler.json)."""
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def check_regression(
    payload: Dict, baseline_path, factor: float = 2.0
) -> List[str]:
    """Compare a payload against a committed baseline; list failures.

    A point regresses when its mean per-call time exceeds ``factor`` ×
    the baseline's for the same (mode, stream length).  Decision
    divergence and a non-flat index are always failures.
    """
    failures: List[str] = []
    if not payload.get("decision_identical", False):
        failures.append("decision sequences diverged between modes")
    if payload.get("index_flatness", 1.0) >= factor:
        failures.append(
            f"index per-call cost not flat: {payload['index_flatness']:.2f}x "
            f"across stream lengths (limit {factor:.1f}x)"
        )
    baseline = json.loads(Path(baseline_path).read_text())
    baseline_points = {
        (p["mode"], p["stream_len"]): p for p in baseline.get("points", ())
    }
    for point in payload.get("points", ()):
        key = (point["mode"], point["stream_len"])
        base = baseline_points.get(key)
        if base is None:
            continue
        if point["mean_call_us"] > factor * base["mean_call_us"]:
            failures.append(
                f"{key[0]}@{key[1]}: {point['mean_call_us']:.2f}µs/call vs "
                f"baseline {base['mean_call_us']:.2f}µs (>{factor:.1f}x)"
            )
    return failures
