"""Throughput normalisation helpers (Figure 5's presentation)."""

from __future__ import annotations

from typing import Dict, Mapping, Optional

__all__ = ["normalize_throughput", "subnets_per_hour"]


def normalize_throughput(
    throughputs: Mapping[str, Optional[float]], reference: str
) -> Dict[str, Optional[float]]:
    """Scale throughputs so ``reference`` is 1.0 (None marks OOM).

    Provenance: the paper's Figure 5 presentation (normalized throughput
    with NASPipe = 1.0). Inputs are samples/s (or any consistent rate);
    output is unitless relative throughput.
    """
    base = throughputs.get(reference)
    if not base:
        raise ValueError(f"reference system {reference!r} missing or zero")
    return {
        name: (value / base if value is not None else None)
        for name, value in throughputs.items()
    }


def subnets_per_hour(subnets_completed: int, makespan_ms: float) -> float:
    """The red-bar annotation of Figures 5/6.

    Converts a completed-subnet count and a makespan in **virtual ms**
    into subnets per hour (the artifact's Experiment 2 metric).
    """
    if makespan_ms <= 0:
        return 0.0
    return subnets_completed / (makespan_ms / 3_600_000.0)
