"""Latency/throughput statistics and the serving benchmark report.

Percentiles use the **nearest-rank** definition: for ``n`` sorted
samples, the p-th percentile is the value at 1-based rank
``ceil(p × n / 100)`` — computed in integer arithmetic, never by float
interpolation.  Interpolated percentiles mix two samples into a number
nobody observed and whose low bits depend on the platform's float
rounding; nearest-rank always returns an actual measured latency and is
bit-stable, which is what lets the CI gate ``cmp`` two reports.

The report is canonical JSON (sorted keys, two-space indent, trailing
newline — the repo-wide convention), and :func:`check_regression` is
the committed-baseline gate: perf fields fail on a factor, fingerprint
fields fail on any bitwise difference.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.payload import indented

__all__ = [
    "nearest_rank",
    "latency_stats",
    "latency_histogram",
    "serving_report_json",
    "format_serving_report",
    "check_regression",
    "DEFAULT_LATENCY_BUCKETS_MS",
]

_PERCENTILES = (50, 95, 99)

#: Fixed latency bucket bounds (virtual ms) shared by the scenario
#: report's histogram and the telemetry plane's ``serving_latency_ms``
#: instrument — one set of edges, so the online and post-hoc views of
#: the same run bucket identically.
DEFAULT_LATENCY_BUCKETS_MS = (
    5.0, 10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 200.0,
    300.0, 400.0, 600.0, 800.0, 1200.0, 1600.0, 2400.0, 3200.0,
)


def nearest_rank(values: Sequence[float], percentile: int) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted).

    ``rank = ceil(percentile × n / 100)`` in integer math, clamped to at
    least 1; the result is ``sorted(values)[rank - 1]`` — always one of
    the inputs, never an interpolation.

    >>> nearest_rank([15, 20, 35, 40, 50], 30)
    20
    >>> nearest_rank([7.0], 99)
    7.0
    """
    if not values:
        raise ValueError("nearest_rank of an empty sample")
    if not isinstance(percentile, int):
        raise TypeError(
            f"percentile must be int (nearest-rank is integer math), "
            f"got {type(percentile).__name__}"
        )
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    ordered = sorted(values)
    n = len(ordered)
    rank = -(-percentile * n // 100)  # ceil-div without floats
    return ordered[max(rank, 1) - 1]


def latency_stats(latencies_ms: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99/mean/max of a latency sample (empty → all zero)."""
    if not latencies_ms:
        return {f"p{p}": 0.0 for p in _PERCENTILES} | {"mean": 0.0, "max": 0.0}
    stats = {f"p{p}": nearest_rank(latencies_ms, p) for p in _PERCENTILES}
    stats["mean"] = sum(latencies_ms) / len(latencies_ms)
    stats["max"] = max(latencies_ms)
    return stats


def latency_histogram(
    latencies_ms: Sequence[float],
    buckets: Optional[Sequence[float]] = None,
) -> Dict:
    """Fixed-boundary latency histogram for scenario reports.

    ``buckets`` are ascending upper bounds (default
    :data:`DEFAULT_LATENCY_BUCKETS_MS`); counts are per-bucket
    (non-cumulative) with a final overflow bucket, so ``sum(counts) ==
    count`` always.  Consistency with the nearest-rank percentiles is
    structural — a percentile value always lands in a bucket whose
    cumulative count reaches that percentile's rank (tested in
    ``tests/test_serving_metrics.py``).
    """
    # imported here: repro.obs.telemetry reads this module's default
    # bucket edges at import time, so a top-level import would be a cycle
    from repro.obs.telemetry.registry import BOUNDS_RULE, bucket_index, checked_bounds

    if buckets is None:
        buckets = DEFAULT_LATENCY_BUCKETS_MS
    bounds = checked_bounds(buckets)
    if bounds is None:
        raise ValueError(f"{BOUNDS_RULE}, got {[float(b) for b in buckets]}")
    counts = [0] * (len(bounds) + 1)
    total = 0.0
    for value in latencies_ms:
        number = float(value)
        total += number
        counts[bucket_index(bounds, number)] += 1
    return {
        "buckets_ms": list(bounds),
        "counts": counts,
        "count": len(latencies_ms),
        "sum_ms": total,
    }


def serving_report_json(report: Dict) -> str:
    """Canonical byte-stable encoding (the CI gate ``cmp``'s two)."""
    return indented(report) + "\n"


def _scenario_lines(name: str, scenario: Dict) -> List[str]:
    latency = scenario["latency_ms"]
    lines = [
        f"{name}:",
        f"  requests {scenario['requests']:>6d}   completed "
        f"{scenario['completed']:>6d}   shed {scenario['shed']:>5d} "
        f"({scenario['shed_rate']:.1%})",
        f"  latency ms  p50 {latency['p50']:>9.3f}  p95 "
        f"{latency['p95']:>9.3f}  p99 {latency['p99']:>9.3f}  "
        f"max {latency['max']:>9.3f}",
        f"  throughput {scenario['throughput_rps']:>8.1f} req/s   "
        f"SLO({scenario['slo_ms']:g} ms) attainment "
        f"{scenario['slo_attainment']:.1%}",
        f"  cache: result hit {scenario['result_hit_rate']:.1%}   "
        f"layer hit {scenario['layer_hit_rate']:.1%}   "
        f"combined {scenario['hit_rate']:.1%}",
    ]
    return lines


def format_serving_report(report: Dict) -> str:
    """Human-readable rendering of a ``BENCH_serving`` payload."""
    lines = [
        f"Serving bench — {report['config']['space']}, "
        f"{report['config']['num_gpus']} leased GPUs of "
        f"{report['config']['total_gpus']}, "
        f"{report['config']['requests']} requests "
        f"({report['config']['arrival']} arrivals)",
        "",
    ]
    for name in ("primary", "no_cache", "overload"):
        scenario = report.get(name)
        if scenario is None:
            continue
        lines.extend(_scenario_lines(name, scenario))
        lines.append("")
    primary = report.get("primary")
    no_cache = report.get("no_cache")
    if primary and no_cache:
        speedup = (
            no_cache["latency_ms"]["p99"] / primary["latency_ms"]["p99"]
            if primary["latency_ms"]["p99"]
            else 0.0
        )
        lines.append(
            f"cache effect: p99 {no_cache['latency_ms']['p99']:.3f} -> "
            f"{primary['latency_ms']['p99']:.3f} ms ({speedup:.2f}x), "
            f"hit rate {no_cache['hit_rate']:.1%} -> {primary['hit_rate']:.1%}"
        )
    return "\n".join(lines).rstrip()


def check_regression(
    payload: Dict, baseline_path, factor: float = 2.0
) -> List[str]:
    """Gate a serving payload against a committed baseline.

    Per scenario: p99 latency regresses when it exceeds ``factor`` × the
    baseline's; throughput regresses when ``rate × factor`` falls below
    the baseline's.  When the two configs are identical the scenario's
    p99, completed and shed counts are additionally compared *bitwise* —
    any difference there is a determinism violation, not a perf delta.
    Structural claims (cache strictly helps; overload sheds; admitted
    requests meet the SLO) are checked unconditionally.
    """
    failures: List[str] = []
    baseline = json.loads(Path(baseline_path).read_text())
    same_config = payload.get("config") == baseline.get("config")
    for name in ("primary", "no_cache", "overload"):
        scenario = payload.get(name)
        base = baseline.get(name)
        if scenario is None or base is None:
            continue
        p99 = scenario["latency_ms"]["p99"]
        base_p99 = base["latency_ms"]["p99"]
        if base_p99 > 0 and p99 > factor * base_p99:
            failures.append(
                f"{name}: p99 {p99:.3f} ms vs baseline {base_p99:.3f} ms "
                f"(>{factor:.1f}x)"
            )
        rate = scenario["throughput_rps"]
        base_rate = base["throughput_rps"]
        if rate * factor < base_rate:
            failures.append(
                f"{name}: {rate:.1f} req/s vs baseline {base_rate:.1f} "
                f"(<1/{factor:.1f}x)"
            )
        if same_config:
            for field in ("completed", "shed"):
                if scenario[field] != base[field]:
                    failures.append(
                        f"{name}: {field} {scenario[field]!r} != baseline "
                        f"{base[field]!r} — determinism violation, not a "
                        f"perf delta"
                    )
            if p99 != base_p99:
                failures.append(
                    f"{name}: p99 {p99!r} != baseline {base_p99!r} — "
                    f"determinism violation, not a perf delta"
                )
    primary = payload.get("primary")
    no_cache = payload.get("no_cache")
    if primary and no_cache:
        if not primary["hit_rate"] > no_cache["hit_rate"]:
            failures.append(
                f"cache did not raise hit rate: {primary['hit_rate']:.3f} "
                f"vs {no_cache['hit_rate']:.3f} uncached"
            )
        if not primary["latency_ms"]["p99"] < no_cache["latency_ms"]["p99"]:
            failures.append(
                f"cache did not lower p99: {primary['latency_ms']['p99']:.3f}"
                f" vs {no_cache['latency_ms']['p99']:.3f} uncached"
            )
    overload = payload.get("overload")
    if overload:
        if overload["shed"] <= 0:
            failures.append("overload scenario shed nothing — not overloaded")
        if overload["slo_attainment"] < 1.0:
            failures.append(
                f"admitted overload requests missed the SLO: attainment "
                f"{overload['slo_attainment']:.3f} < 1.0"
            )
    return failures
