"""What this repo checks, each invariant written once.

Every function returns its violation strings, and ``[]`` means the
invariant holds.  A harness composes them, and a command that prints a
verdict exits 1 on a violation (docs/FAULT_TOLERANCE.md § Invariants):

* :func:`same_training` — Definition 1: the final-weight digest and every
  per-subnet float32 loss bitwise equal to a reference run's;
* :func:`completed` — not interrupted, and every subnet trained;
* :func:`trace_valid` — every event passes its kind's schema;
* :func:`attribution_sums` — bubble attribution sums to the bubble ratio;
* :func:`cache_within_cap` — no runaway per-GPU parameter cache;
* :func:`slots_released` — no leased, residual or down slot at quiescence;
* :func:`requests_served` — no request lost, the SLO met outside outages;
* :func:`metering_reconciled` — per-tenant metering equals the lease ledger.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.events import validate_trace
from repro.obs.summary import bubble_attribution, mean_attribution

__all__ = [
    "TOLERANCE", "MEM_CAP_FACTOR", "same_training", "diverged", "completed",
    "trace_valid", "attribution_sums", "cache_within_cap", "slots_released",
    "requests_served", "metering_reconciled",
]

#: an attribution or a metered total reproduces its reference this closely
TOLERANCE = 1e-9
#: the cache-cap margin: the engine runs oversubscribed up to its OOM threshold
#: (1.5) and one working set may exceed the cache, so only growth beyond is runaway
MEM_CAP_FACTOR = 2.0


def _training(run) -> Tuple[Optional[str], Dict[int, float]]:
    """``(digest, {subnet id: loss})`` of a result or a (str-keyed) report row."""
    if isinstance(run, Mapping):
        digest, losses = run["digest"], run["losses"]
    else:
        digest, losses = run.digest, run.losses
    return digest, {int(sid): loss for sid, loss in losses.items()}


def same_training(expected, actual) -> List[str]:
    """Definition 1: ``actual`` trained bitwise what ``expected`` did.

    Each side is a run result, a manifest or a report row.  A missing
    digest never matches.  A violation starts with the field it names,
    ``digest diverged`` or ``losses diverged`` (see :func:`diverged`).
    """
    want_digest, want = _training(expected)
    got_digest, got = _training(actual)
    violations = []
    if got_digest is None or got_digest != want_digest:
        violations.append(f"digest diverged: {got_digest} != baseline {want_digest}")
    if len(got) != len(want):
        violations.append(
            f"losses diverged: {len(got)} subnet(s) trained, {len(want)} expected "
            "— the runs are not the same length"
        )
    elif got.keys() != want.keys():
        violations.append(
            f"losses diverged: loss set differs, missing {sorted(want.keys() - got.keys())}, "
            f"unexpected {sorted(got.keys() - want.keys())}"
        )
    elif got != want:
        subnets = sorted(sid for sid in want if got[sid] != want[sid])
        violations.append(f"losses diverged at subnets {subnets[:8]}")
    return violations


def diverged(violations: List[str], field: str) -> bool:
    """Whether :func:`same_training`'s ``violations`` name ``field``."""
    return any(violation.startswith(f"{field} diverged") for violation in violations)


def completed(result, steps: int) -> List[str]:
    """The run was not interrupted and completed ``steps`` subnets."""
    violations = []
    if result.interrupted:
        violations.append(
            f"run interrupted by {result.interrupt_kind!r} — non-fatal "
            "schedules must never halt the run"
        )
    if result.subnets_completed != steps:
        violations.append(f"completed {result.subnets_completed}/{steps} subnets")
    return violations


def trace_valid(trace, plane: str = "") -> List[str]:
    """:func:`~repro.obs.events.validate_trace`, its violation labelled
    by ``plane`` when a scenario checks more than one trace."""
    problems = validate_trace(trace)
    if not problems:
        return []
    label = f"{plane} " if plane else ""
    return [f"{label}trace schema violations ({len(problems)}): {problems[:3]}"]


def attribution_sums(trace) -> List[str]:
    """The per-cause bubble attribution sums to the bubble ratio."""
    attributed = sum(mean_attribution(bubble_attribution(trace)).values())
    ratio = trace.bubble_ratio()
    if abs(attributed - ratio) <= TOLERANCE:
        return []
    return [f"bubble attribution {attributed!r} != bubble ratio {ratio!r}"]


def cache_within_cap(result, baseline, capacity_bytes: Optional[int]) -> List[str]:
    """The peak per-GPU cache is at most :data:`MEM_CAP_FACTOR` × the larger of
    ``capacity_bytes`` (None: full context) and the baseline's own peak."""
    if not capacity_bytes or result.peak_cache_bytes is None:
        return []
    baseline_peak = getattr(baseline, "peak_cache_bytes", None) or 0
    if result.peak_cache_bytes <= max(capacity_bytes, baseline_peak) * MEM_CAP_FACTOR:
        return []
    return [
        f"peak cache {result.peak_cache_bytes} bytes exceeds {MEM_CAP_FACTOR}x "
        f"max(capacity {capacity_bytes}, baseline peak {baseline_peak}) bytes"
    ]


def slots_released(manager) -> List[str]:
    """``manager`` holds no lease, residual or down slot, and every slot
    is back in the free pool."""
    violations = []
    if manager.leased_gpus:
        violations.append(f"{manager.leased_gpus} GPU(s) still leased at quiescence")
    if manager.residual_slots():
        violations.append(
            f"revoked residual slots never released: {list(manager.residual_slots())}"
        )
    if manager.down_slots():
        violations.append(f"slots still down at quiescence: {list(manager.down_slots())}")
    if manager.free_slots() != tuple(range(manager.total_gpus)):
        violations.append(
            f"free pool {list(manager.free_slots())} != all {manager.total_gpus} slots"
        )
    return violations


def requests_served(result, slo_ms: float) -> List[str]:
    """No request is still ``pending``, and every completed never-retried
    request whose lifetime avoids the outage windows meets ``slo_ms``."""
    violations = []
    lost = [r.request_id for r in result.records if r.outcome == "pending"]
    if lost:
        violations.append(
            f"{len(lost)} serving request(s) lost (still pending at quiescence): {lost[:8]}"
        )
    windows = result.outage_windows
    missed = [
        r.request_id
        for r in result.records
        if r.outcome == "completed"
        and r.retries == 0
        and not any(r.arrival_ms <= end and start <= r.done_ms for start, end in windows)
        and r.latency_ms > slo_ms
    ]
    if missed:
        violations.append(
            f"{len(missed)} admitted request(s) outside outage windows "
            f"missed the {slo_ms:g} ms SLO: {missed[:8]}"
        )
    return violations


def metering_reconciled(reconciliation: Optional[Mapping]) -> List[str]:
    """A metering report's ``reconciliation`` block: tenants and ledger
    agree within :data:`TOLERANCE` (no block, no manager: holds)."""
    if reconciliation is None or reconciliation["residual_ms"] <= TOLERANCE:
        return []
    return [
        f"metering: tenants {reconciliation['tenant_total_ms']:.6f} ms vs ledger "
        f"{reconciliation['ledger_total_ms']:.6f} ms "
        f"(residual {reconciliation['residual_ms']:.2e})"
    ]
