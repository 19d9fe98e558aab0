"""Availability accounting: what faults cost a training run.

Everything is measured on the virtual clock, so the numbers are exactly
reproducible:

* **lost virtual time** — work done after the last consistent checkpoint
  and discarded by each crash (the PipeDream-style recovery cost CSP's
  consistent cuts bound to at most one checkpoint interval);
* **recovery latency** — restart downtime plus prefetch re-warm per
  attempt;
* **goodput** — the fault-free makespan divided by the faulted global
  makespan: the fraction of wall-clock the cluster spent making forward
  progress.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.engines.pipeline import PipelineResult
from repro.ft.recovery import FaultedRunResult
from repro.invariants import same_training

__all__ = [
    "availability_summary",
    "failure_summary",
    "format_availability",
]


def failure_summary(
    job: str,
    *,
    attempts: int,
    max_restarts: int,
    lost_virtual_ms: float,
    fault: str,
) -> Dict[str, object]:
    """Structured record of one job's terminal failure.

    Emitted by the service plane when a rigid job struck by lease
    revocations exhausts its restart budget
    (:func:`~repro.ft.recovery.run_with_recovery` raises
    :class:`~repro.errors.FaultToleranceError` instead).  It is the
    machine-readable answer to "why did this tenant fail while the fleet
    kept running": attempts made, the budget they exceeded, virtual work
    discarded, and the last fault.
    """
    return {
        "job": job,
        "attempts": attempts,
        "max_restarts": max_restarts,
        "lost_virtual_ms": lost_virtual_ms,
        "fault": fault,
    }


def availability_summary(
    faulted: FaultedRunResult,
    baseline: Optional[PipelineResult] = None,
) -> Dict[str, object]:
    """Machine-readable availability metrics for one recovered run."""
    summary: Dict[str, object] = {
        "system": faulted.system,
        "space": faulted.space,
        "num_gpus": faulted.num_gpus,
        "final_gpus": faulted.final_gpus,
        "subnets_completed": faulted.subnets_completed,
        "attempts": faulted.num_attempts,
        "crashes": faulted.num_attempts - 1,
        "faults_fired": faulted.fault_count,
        "task_retries": faulted.task_retries,
        "checkpoints_committed": len(faulted.checkpoint_cuts),
        "checkpoint_cuts": list(faulted.checkpoint_cuts),
        "makespan_ms": faulted.makespan_ms,
        "lost_virtual_ms": faulted.lost_virtual_ms,
        "recovery_latency_ms": faulted.recovery_latency_ms,
        "digest": faulted.digest,
    }
    if baseline is not None:
        summary["baseline_makespan_ms"] = baseline.makespan_ms
        summary["goodput_ratio"] = (
            baseline.makespan_ms / faulted.makespan_ms
            if faulted.makespan_ms
            else 1.0
        )
        summary["digest_matches_baseline"] = not same_training(baseline, faulted)
    return summary


def format_availability(summary: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`availability_summary`."""
    lines = [
        f"{summary['system']} on {summary['space']} "
        f"(D={summary['num_gpus']}"
        + (
            f" -> {summary['final_gpus']}"
            if summary["final_gpus"] != summary["num_gpus"]
            else ""
        )
        + f", {summary['subnets_completed']} subnets)",
        f"  attempts            {summary['attempts']} "
        f"({summary['crashes']} crash(es), "
        f"{summary['faults_fired']} fault(s) fired, "
        f"{summary['task_retries']} task retr{'y' if summary['task_retries'] == 1 else 'ies'})",
        f"  checkpoints         {summary['checkpoints_committed']} "
        f"at cuts {summary['checkpoint_cuts']}",
        f"  makespan            {summary['makespan_ms']:.2f} virtual ms",
        f"  lost virtual time   {summary['lost_virtual_ms']:.2f} ms",
        f"  recovery latency    {summary['recovery_latency_ms']:.2f} ms",
    ]
    if "goodput_ratio" in summary:
        lines.append(
            f"  goodput             {summary['goodput_ratio'] * 100:.1f}% "
            f"of fault-free ({summary['baseline_makespan_ms']:.2f} ms)"
        )
    if "digest_matches_baseline" in summary:
        verdict = (
            "IDENTICAL to fault-free run"
            if summary["digest_matches_baseline"]
            else "DIVERGED from fault-free run"
        )
        lines.append(f"  parameter digest    {verdict}")
    return "\n".join(lines)

