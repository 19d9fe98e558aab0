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

:func:`mtbf_sweep` runs the same workload under seeded fault schedules
of decreasing MTBF and tabulates the degradation curve.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.config import SystemConfig
from repro.engines.pipeline import PipelineResult
from repro.ft.faults import FaultSchedule
from repro.ft.recovery import (
    FaultedRunResult,
    RecoverySpec,
    run_uninterrupted,
    run_with_recovery,
)
from repro.seeding import SeedSequenceTree
from repro.supernet.search_space import SearchSpace

__all__ = [
    "availability_summary",
    "failure_summary",
    "format_availability",
    "mtbf_sweep",
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
        summary["digest_matches_baseline"] = faulted.digest == baseline.digest
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


def mtbf_sweep(
    space: SearchSpace,
    config: SystemConfig,
    *,
    mtbf_values_ms: Sequence[float],
    num_gpus: int,
    steps: int,
    seed: int,
    checkpoint_dir: Union[str, Path],
    spec: Optional[RecoverySpec] = None,
    batch: Optional[int] = None,
    functional_batch: int = 8,
) -> List[Dict[str, object]]:
    """Goodput vs MTBF: one seeded schedule and recovered run per row."""
    baseline = run_uninterrupted(
        space,
        config,
        num_gpus=num_gpus,
        steps=steps,
        seed=seed,
        batch=batch,
        functional_batch=functional_batch,
    )
    seeds = SeedSequenceTree(seed)
    rows: List[Dict[str, object]] = []
    for mtbf in mtbf_values_ms:
        schedule = FaultSchedule.from_mtbf(
            seeds,
            mtbf_ms=mtbf,
            horizon_ms=baseline.makespan_ms,
            num_gpus=num_gpus,
        )
        faulted = run_with_recovery(
            space,
            config,
            schedule,
            num_gpus=num_gpus,
            steps=steps,
            seed=seed,
            checkpoint_dir=Path(checkpoint_dir) / f"mtbf_{int(mtbf)}",
            spec=spec,
            batch=batch,
            functional_batch=functional_batch,
        )
        row = availability_summary(faulted, baseline)
        row["mtbf_ms"] = mtbf
        rows.append(row)
    return rows
