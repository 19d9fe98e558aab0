"""Deterministic run summaries with per-stage bubble attribution.

The paper reports the bubble ratio as one number per run (Table 2's
"Bub." column); this module decomposes the same idle time by *cause*,
per stage:

* **startup** — idle before the stage's first compute task (pipeline
  fill / ramp);
* **fetch_stall** — recorded stall intervals: synchronous parameter
  swap-ins, operator migrations and OOM retries;
* **csp_wait** — idle overlapping an open CSP wait window (the stage
  had queued forwards but every candidate was blocked by an unreleased
  causal dependency — the scheduling cost of Definition 2);
* **drain** — idle after the stage's last compute task (pipeline drain);
* **other_idle** — the remainder (empty queues mid-run: upstream
  starvation or transfer latency).

The five per-stage terms sum to the stage's idle time *exactly* (the
remainder term balances by construction), so the mean attribution across
stages reproduces ``ExecutionTrace.bubble_ratio()`` to float precision —
the invariant the exporter tests enforce at 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Dict, List, Tuple

from repro.obs.critical_path import _breakdown
from repro.obs.model import RunModel, _complement, _merge, _Sweep
from repro.payload import compact
from repro.sim.trace import ExecutionTrace

__all__ = [
    "StageBubbles",
    "bubble_attribution",
    "mean_attribution",
    "run_summary",
    "summary_json",
    "format_summary",
]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageBubbles:
    """One stage's idle-time decomposition (all values virtual ms)."""

    stage: int
    makespan_ms: float
    busy_ms: float
    idle_ms: float
    startup_ms: float
    fetch_stall_ms: float
    csp_wait_ms: float
    drain_ms: float
    other_idle_ms: float

    def fractions(self) -> Dict[str, float]:
        """Idle categories as fractions of the makespan; they sum to
        this stage's idle fraction."""
        if self.makespan_ms <= 0:
            return {
                "startup": 0.0,
                "fetch_stall": 0.0,
                "csp_wait": 0.0,
                "drain": 0.0,
                "other_idle": 0.0,
            }
        return {
            "startup": self.startup_ms / self.makespan_ms,
            "fetch_stall": self.fetch_stall_ms / self.makespan_ms,
            "csp_wait": self.csp_wait_ms / self.makespan_ms,
            "drain": self.drain_ms / self.makespan_ms,
            "other_idle": self.other_idle_ms / self.makespan_ms,
        }


def bubble_attribution(trace: ExecutionTrace) -> List[StageBubbles]:
    """Decompose every stage's idle time by cause.

    Precedence inside each idle segment: recorded stalls first (they are
    explicit hardware waits), then position (before first compute =
    startup, after last = drain), then CSP wait overlap, then remainder.
    ``other_idle`` balances exactly, so per stage
    ``startup + fetch_stall + csp_wait + drain + other_idle == idle``.
    """
    return _attribution(RunModel(trace))


def _attribution(model: RunModel) -> List[StageBubbles]:
    trace = model.trace
    makespan = trace.makespan
    per_stage: List[StageBubbles] = []
    busy_of, _ = trace.compute_durations()
    for stage, chain in model.gpu_chain.items():
        compute = _merge([(a.start, a.end) for a in chain if a.kind == "compute"])
        stalls = _merge([(a.start, a.end) for a in chain if a.kind == "stall"])
        wait_segments = model.wait_segments.get(stage, [])
        busy = sum(busy_of.get(stage, ()))
        idle = max(0.0, makespan - busy)

        if makespan <= 0:
            per_stage.append(
                StageBubbles(stage, 0.0, busy, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            )
            continue

        first_compute = compute[0][0] if compute else trace.end_time
        last_compute = compute[-1][1] if compute else trace.end_time
        startup = fetch_stall = csp_wait = drain = 0.0
        # the gaps come in time order: one forward sweep per merged list
        stalls, waits = _Sweep(stalls), _Sweep(wait_segments)
        for start, end in _complement(compute, trace.start_time, trace.end_time):
            stalled = stalls.overlap(start, end)
            fetch_stall += stalled
            remainder = (end - start) - stalled
            if remainder <= 0:
                continue
            if end <= first_compute:
                # Fill phase: idle before the stage's first task (minus
                # any stall already attributed above).
                startup += remainder
            elif start >= last_compute:
                drain += remainder
            else:
                waited = min(remainder, waits.overlap(start, end))
                csp_wait += waited
        other = idle - startup - fetch_stall - csp_wait - drain
        per_stage.append(
            StageBubbles(
                stage=stage,
                makespan_ms=makespan,
                busy_ms=busy,
                idle_ms=idle,
                startup_ms=startup,
                fetch_stall_ms=fetch_stall,
                csp_wait_ms=csp_wait,
                drain_ms=drain,
                other_idle_ms=other,
            )
        )
    return per_stage


def mean_attribution(stages: List[StageBubbles]) -> Dict[str, float]:
    """Mean of the stages' idle fractions per cause; the five values sum
    to ``ExecutionTrace.bubble_ratio()`` to float precision."""
    mean: Dict[str, float] = {
        "startup": 0.0,
        "fetch_stall": 0.0,
        "csp_wait": 0.0,
        "drain": 0.0,
        "other_idle": 0.0,
    }
    for stage in stages:
        for key, value in stage.fractions().items():
            mean[key] += value
    if stages:
        for key in mean:
            mean[key] /= len(stages)
    return mean


def run_summary(result) -> Dict[str, object]:
    """Deterministic summary dict for one :class:`PipelineResult`.

    ``bubble_attribution`` holds mean fractions across stages; their sum
    equals ``bubble_ratio`` to float precision (tested at 1e-9).
    """
    return _readings(result, RunModel(result.trace))[0]


def _readings(
    result, model: RunModel
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """:func:`run_summary` and ``critical_path_breakdown`` of one run
    from one model: the path is walked once, and the summary's
    ``cp_share`` is read from that walk."""
    trace: ExecutionTrace = result.trace
    breakdown = _breakdown(model)
    cp_share = breakdown["per_stage_share"]
    stages = _attribution(model)
    summary = {
        "schema": 1,
        "system": result.system,
        "space": result.space,
        "num_gpus": result.num_gpus,
        "batch": result.batch,
        "makespan_ms": trace.makespan,
        "subnets_completed": result.subnets_completed,
        "throughput_samples_per_sec": result.throughput_samples_per_sec,
        "bubble_ratio": trace.bubble_ratio(),
        "bubble_attribution": mean_attribution(stages),
        "per_stage": [
            {
                "stage": stage.stage,
                "busy_ms": stage.busy_ms,
                "idle_ms": stage.idle_ms,
                "startup_ms": stage.startup_ms,
                "fetch_stall_ms": stage.fetch_stall_ms,
                "csp_wait_ms": stage.csp_wait_ms,
                "drain_ms": stage.drain_ms,
                "other_idle_ms": stage.other_idle_ms,
                # this stage's share of the run's critical path — the
                # same number the text rendering prints, so the two
                # summaries cannot disagree
                "cp_share": cp_share.get(str(stage.stage), 0.0),
            }
            for stage in stages
        ],
        "cache": {
            "hits": trace.cache_hits,
            "misses": trace.cache_misses,
            "hit_rate": trace.cache_hit_rate(),
        },
        "total_alu": result.total_alu,
        "mean_exec_ms": result.mean_exec_ms,
        "event_counts": trace.event_counts(),
    }
    return summary, breakdown


def summary_json(summary: Dict[str, object]) -> str:
    """Canonical single-line JSON for a summary dict — sorted keys, no
    whitespace, trailing newline; byte-identical across identical runs
    (the ``naspipe trace --summary-json`` and registry serialisation)."""
    return compact(summary) + "\n"


def _pct(fraction: float, digits: int = 1) -> str:
    """Render a fraction as a percentage string, rounding **half-even in
    decimal space**.  ``f"{x:.1f}"`` is only half-even on the binary
    float, so ``0.065 * 100`` (stored as 6.50000...2) rounds up while
    6.45 (stored as 6.4499...) rounds down — effectively unpredictable
    per value.  Going through :class:`~decimal.Decimal` makes ties
    behave: 6.25% -> 6.2%, 6.75% -> 6.8%."""
    quantum = Decimal(1).scaleb(-digits)
    value = (Decimal(repr(float(fraction))) * 100).quantize(
        quantum, rounding=ROUND_HALF_EVEN
    )
    return f"{value}%"


def format_summary(summary: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`run_summary` (stable layout).

    Every percentage goes through :func:`_pct` (decimal half-even), and
    the stage rows print the same ``cp_share`` the JSON summary carries."""
    attribution = summary["bubble_attribution"]
    lines = [
        "run summary — {system} on {space}, D={num_gpus}, batch={batch}".format(
            **summary
        ),
        f"  makespan       {summary['makespan_ms']:.1f} ms "
        f"({summary['subnets_completed']} subnets, "
        f"{summary['throughput_samples_per_sec']:.1f} samples/s)",
        f"  bubble ratio   {summary['bubble_ratio']:.4f}",
        "  bubble attribution (mean fraction of makespan per stage):",
    ]
    for key in ("startup", "csp_wait", "fetch_stall", "drain", "other_idle"):
        lines.append(
            f"    {key:<12s} {attribution[key]:.4f} ({_pct(attribution[key]):>6s})"
        )
    lines.append(
        "  stage  busy_ms  startup  csp_wait  fetch_stall  drain  other"
        "  cp_share"
    )
    for row in summary["per_stage"]:
        lines.append(
            "  P{stage:<4d} {busy_ms:8.1f} {startup_ms:8.1f} {csp_wait_ms:9.1f} "
            "{fetch_stall_ms:11.1f} {drain_ms:6.1f} {other_idle_ms:6.1f}".format(
                **row
            )
            + f"  {_pct(row.get('cp_share', 0.0)):>8s}"
        )
    cache = summary["cache"]
    hit = _pct(cache["hit_rate"]) if cache["hit_rate"] is not None else "N/A"
    lines.append(
        f"  cache          {cache['hits']} hits / {cache['misses']} misses ({hit})"
    )
    counts = summary["event_counts"]
    lines.append(
        "  events         "
        + " ".join(f"{kind}={count}" for kind, count in counts.items())
    )
    return "\n".join(lines)
