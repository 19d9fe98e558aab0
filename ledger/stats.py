"""Order statistics the ledger reports, and the rule for which repeat exactly."""

from __future__ import annotations

import statistics
from typing import Dict, Mapping, Optional, Sequence, Tuple

__all__ = [
    "EXACT_UNITS",
    "first_difference",
    "is_exact",
    "median",
    "percentile",
    "quartiles",
    "spread",
    "tail",
    "timing_summary",
]

#: percentiles a tail may be reported at, lowest first
_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: units of figures that come from the virtual clock or from counting,
#: and therefore repeat bit-for-bit on the same seed
EXACT_UNITS = frozenset({"count", "virtual_ms", "ratio", "bytes"})


def is_exact(name: str, unit: str) -> bool:
    """True when the metric must be identical on two runs of one seed.

    ``ledger.*`` rows describe the harness's own sampling (how many
    iterations fitted the time box), so they are host-dependent whatever
    their unit.
    """
    return unit in EXACT_UNITS and not name.startswith("ledger.")


def first_difference(expected: Mapping, got: Mapping) -> Optional[str]:
    """The first figure of ``expected`` that ``got`` does not repeat."""
    for key in sorted(expected):
        if expected[key] != got.get(key):
            return f"{key}: expected {expected[key]!r}, got {got.get(key)!r}"
    return None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Q1, median, Q3 as ``statistics.quantiles(values, n=4)`` gives them
    (the driver's convention); a single sample is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, n)``: the highest ladder percentile that
    still has at least ten samples beyond it.

    Below twenty samples no percentile above the median qualifies; the
    median is returned so the row is always present, and ``n`` tells the
    reader why.
    """
    count = len(values)
    chosen = _LADDER[0]
    for pct in _LADDER:
        if count * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:  # 100 - 99.9 is not exact
            chosen = pct
    return chosen, percentile(values, chosen), count


def timing_summary(samples: Sequence[float]) -> Dict[str, float]:
    """The per-run diagnostics of one list of iteration times."""
    q1, q2, q3 = quartiles(samples)
    hi_pct, hi, count = tail(samples)
    return {
        "p50": q2,
        "min": float(min(samples)),
        "iqr": q3 - q1,
        "hi": hi,
        "hi_pct": hi_pct,
        "n": count,
    }
