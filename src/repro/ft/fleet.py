"""Fleet-scale chaos: preemption storms across service + serving planes.

A **fleet scenario** co-locates the three tenant classes of a real
supernet-training cluster on one shared
:class:`~repro.service.manager.ClusterManager`:

* an **elastic CSP** training job (consistent cuts mid-stream — shrinks,
  replans and resumes from its carried functional plane);
* a **rigid** non-CSP training job (no cuts — aborted segments restart
  from subnet 0 with exponential backoff, bounded by ``max_restarts``);
* a **serving** tenant (in-flight batches dissolve and retry through the
  bounded batcher).

Then it unleashes a seeded **preemption storm** — a fleet-scoped
:meth:`~repro.ft.faults.FaultSchedule.fleet_from_mtbf` schedule of
``slot_preempt`` / ``node_down`` events — and routes each struck slot to
the plane that owns it (the serving tenant leases the lowest slots
first; the training scheduler reacts to the rest).  Both planes run
their own virtual clocks over the same physical manager state, the
training plane first (its co-tenancy is resolved by the shared lease
ledger, not by clock interleaving).

Each scenario checks that the training plane quiesces (every job ends
``done``, or ``failed`` with a failure record), then composes
:mod:`repro.invariants`: each finished job matches its fault-free solo
run (through :func:`~repro.service.scheduler.solo_verdict`), no slot
leaks, no request is lost, the SLO holds outside outage windows, and
both planes' traces are schema-valid.

Storm draws, arrival processes and both virtual clocks are seeded, so
``fleet_sweep`` over the same config is byte-deterministic —
``tests/goldens.json`` pins the demo's report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError, ServiceError
from repro.ft.chaos import sweep
from repro.ft.faults import FaultSchedule
from repro.ft.recovery import JobMemo
from repro.invariants import requests_served, slots_released, trace_valid
from repro.payload import at_least, build, indented, positive
from repro.seeding import SeedSequenceTree
from repro.service.manager import ClusterManager
from repro.service.scheduler import JobScheduler, JobSpec, SchedulerKnobs
from repro.serving.frontend import ServingEngine, ServingInputs, ServingSpec
from repro.sim.cluster import ClusterSpec

__all__ = [
    "run_fleet_scenario",
    "fleet_sweep",
    "fleet_report_json",
    "format_fleet_report",
]


@dataclass(frozen=True)
class FleetConfig:
    """A ``chaos-fleet`` config: the fleet sizes and storms to sweep, the
    scheduler, the serving tenant (a :class:`ServingSpec` payload) and
    the training jobs (each a :class:`JobSpec` payload)."""

    serving: Mapping
    jobs: list
    fleet_slots: List[int] = at_least(1, default_factory=lambda: [8])
    scenarios: int = at_least(1, default=3)
    seed: int = 2022
    #: the storm's MTBF as a fraction of the unfaulted horizon
    storm_mtbf_fraction: float = positive(default=0.2)
    node_down_weight: float = 0.2
    preempt_outage_ms: float = 120.0
    node_outage_ms: float = 300.0
    scheduler: SchedulerKnobs = field(default_factory=SchedulerKnobs)

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ConfigError('needs a non-empty "jobs" list')
        if not self.serving:
            raise ConfigError('needs a "serving" tenant entry')


def _read(payload) -> FleetConfig:
    """A ``chaos-fleet`` config payload as its :class:`FleetConfig` (one
    already read passes through)."""
    if isinstance(payload, FleetConfig):
        return payload
    return build(FleetConfig, payload, "fleet config")


#: the service report's job cells a scenario row carries as they are
_JOB_CELLS = ("name", "sync", "elastic", "status", "restarts", "resizes", "preemptions")


def _build_planes(
    payload: Mapping,
    fleet_slots: int,
    serving_telemetry=None,
    memo: Optional[JobMemo] = None,
) -> Tuple[ClusterManager, "ServingEngine", JobScheduler]:
    """One co-tenant deployment: shared manager, serving tenant leasing
    the lowest slots, training scheduler over the rest (its jobs, and
    the serving tenant, start from the seeded inputs in ``memo``).

    ``serving_telemetry`` optionally arms a
    :class:`~repro.obs.telemetry.TelemetryHub` on the **serving** plane
    (scrapes live on one virtual clock, so a hub watches one plane; the
    shared manager's usage observer still shows it every fleet slot
    transition, including strikes routed to the training plane).
    """
    config = _read(payload)
    manager = ClusterManager(ClusterSpec(num_gpus=fleet_slots))
    scheduler = JobScheduler(manager, memo=memo, **vars(config.scheduler))
    spec = ServingSpec.from_payload({**config.serving, "total_gpus": fleet_slots})
    if memo is not None and memo.serving is None:
        memo.serving = ServingInputs(spec)
    serving = ServingEngine(
        spec,
        manager=manager,
        slots_per_node=scheduler.slots_per_node,
        telemetry=serving_telemetry,
        inputs=memo.serving if memo is not None else None,
    )
    for index, entry in enumerate(config.jobs):
        scheduler.submit(JobSpec.from_payload(entry, f"jobs[{index}]"))
    return manager, serving, scheduler


def _unfaulted_horizon(config: FleetConfig, fleet_slots: int, memo: JobMemo) -> float:
    """The storm horizon: the slower of the two planes' fault-free
    makespans at this fleet size."""
    _manager, serving, scheduler = _build_planes(config, fleet_slots, memo=memo)
    training = scheduler.run()
    result = serving.run()
    return max(training["makespan_ms"], result.makespan_ms)


def _check_training(
    jobs: list, report: Dict, fleet_slots: int, memo: JobMemo
) -> Tuple[List[Dict], List[str]]:
    """Every job quiesced, and every finished one bitwise-matches its
    solo run (baselines memoised in ``memo`` across scenarios and
    fleets)."""
    from repro.service.scheduler import JobSpec, solo_verdict

    job_rows: List[Dict] = []
    violations: List[str] = []
    for entry, job in zip(jobs, report["jobs"]):
        row = {key: job[key] for key in _JOB_CELLS}
        row.update(segments=len(job["segments"]), digest_ok=None)
        name, status = job["name"], job["status"]
        if status == "done":
            verdict = solo_verdict(JobSpec.from_payload(entry), job, fleet_slots, memo)
            row["digest_ok"] = verdict["digest_matches_solo"] and verdict["losses_match_solo"]
            if not row["digest_ok"]:
                violations.append(
                    f"job {name} diverged from its fault-free solo run "
                    f"({job['restarts']} restart(s), {job['resizes']} resize(s))"
                )
        elif status != "failed":
            violations.append(f"job {name} ended {status!r} (not done/failed)")
        elif job["failure"] is None:
            violations.append(f"job {name} failed without a failure record")
        job_rows.append(row)
    return job_rows, violations


def _serving_row(result) -> Dict:
    """The serving plane's cells of a scenario row."""
    scenario = result.scenario_report()
    return {
        "requests": scenario["requests"],
        "completed": scenario["completed"],
        "shed": scenario["shed"],
        "retries": scenario["retries"],
        "retried_completed": scenario["retried"]["completed"],
        "revocations": scenario["revocations"],
        "outage_windows": len(result.outage_windows),
        "slo_attainment": scenario["slo_attainment"],
        "p99_ms": scenario["latency_ms"]["p99"],
    }


def run_fleet_scenario(
    payload: Mapping,
    *,
    fleet_slots: int,
    storm_seed: int,
    horizon_ms: float,
    memo: Optional[JobMemo] = None,
    serving_telemetry=None,
) -> Dict:
    """One storm seed against one fleet size; returns a JSON-stable row
    with the invariant verdicts.  ``memo`` (a sweep's) carries the jobs'
    seeded inputs and solo verdicts from scenario to scenario."""
    memo = memo if memo is not None else JobMemo()
    config = _read(payload)
    manager, serving, scheduler = _build_planes(
        config, fleet_slots, serving_telemetry, memo
    )
    storm = FaultSchedule.fleet_from_mtbf(
        SeedSequenceTree(storm_seed),
        mtbf_ms=max(1.0, horizon_ms * config.storm_mtbf_fraction),
        horizon_ms=horizon_ms,
        fleet_slots=fleet_slots,
        slots_per_node=scheduler.slots_per_node,
        stream_name=f"faults/fleet/{fleet_slots}",
        node_down_weight=config.node_down_weight,
        preempt_outage_ms=config.preempt_outage_ms,
        node_outage_ms=config.node_outage_ms,
    )

    serving_slots = frozenset(serving.lease.slots)
    training_slots = frozenset(range(fleet_slots)) - serving_slots
    scheduler.inject_fleet_faults(storm, slots=training_slots)
    serving.inject_fleet_faults(storm, slots=serving_slots)

    row: Dict = {
        "fleet_slots": fleet_slots,
        "storm_seed": storm_seed,
        "storm_events": len(storm),
        "storm_kinds": storm.kind_counts(),
    }
    try:
        training = scheduler.run()
    except ServiceError as exc:
        row.update(
            jobs=[],
            serving=None,
            revocations=manager.total_revocations,
            failed_jobs=None,
            violations=[f"training plane did not quiesce: {exc}"],
        )
        return row
    result = serving.run()
    job_rows, violations = _check_training(config.jobs, training, fleet_slots, memo)
    violations += [
        *slots_released(manager),
        *requests_served(result, serving.spec.slo_ms),
        *trace_valid(scheduler.trace, "training"),
        *trace_valid(result.trace, "serving"),
    ]
    row.update(
        jobs=job_rows,
        serving=_serving_row(result),
        revocations=manager.total_revocations + serving.revocations,
        failed_jobs=training["failed_jobs"],
        violations=violations,
    )
    return row


def fleet_sweep(payload: Mapping) -> Dict:
    """``scenarios`` storm seeds × every fleet size in the config, each
    with the full invariant suite — :func:`repro.ft.chaos.sweep` over
    :func:`run_fleet_scenario`; ``report["ok"]`` is the CI gate."""
    config = _read(payload)  # a bad value is refused before any run
    # the horizon runs and every scenario share one memo: each job's
    # seeded inputs are derived once per sweep, each solo verdict once
    memo = JobMemo()
    horizons, report = sweep(
        config.fleet_slots,
        config.scenarios,
        config.seed,
        baseline=_unfaulted_horizon,
        baseline_args=lambda fleet: dict(
            config=config, fleet_slots=fleet, memo=memo
        ),
        scenario=run_fleet_scenario,
        scenario_args=lambda fleet, _index, storm_seed, horizon_ms: dict(
            payload=config,
            fleet_slots=fleet,
            storm_seed=storm_seed,
            horizon_ms=horizon_ms,
            memo=memo,
        ),
        tags=("fleet", "storm_seed"),
        # scenarios share the in-process ``memo``
        jobs=1,
    )
    rows = report["scenarios"]
    return {
        "schema": 1,
        "seed": config.seed,
        "fleet_slots": config.fleet_slots,
        "scenarios_per_fleet": config.scenarios,
        "total_storm_events": sum(row["storm_events"] for row in rows),
        "total_revocations": sum(
            row["revocations"] for row in rows if row["revocations"] is not None
        ),
        "horizons_ms": {str(f): horizons[f] for f in config.fleet_slots},
        **report,
    }


def fleet_report_json(report: Mapping) -> str:
    """Canonical byte-deterministic serialisation of a fleet report."""
    return indented(report) + "\n"


def format_fleet_report(report: Mapping) -> str:
    """Stable human-readable rendering of a :func:`fleet_sweep` report."""
    lines = [
        f"fleet chaos sweep — {report['scenarios_per_fleet']} storm(s) x "
        f"fleet sizes {report['fleet_slots']} = "
        f"{report['total_scenarios']} scenario(s), "
        f"{report['total_storm_events']} storm event(s), "
        f"{report['total_revocations']} lease revocation(s)",
        "  fleet  storm_seed  events  revoked  failed  "
        "retries  shed  jobs (status/restarts/digest)",
    ]
    for row in report["scenarios"]:
        if row["serving"] is None:
            lines.append(
                f"  {row['fleet_slots']:<6d} {row['storm_seed']:<11d} "
                f"{row['storm_events']:<7d} DID NOT QUIESCE"
            )
            continue
        jobs = " ".join(
            "{name}:{status}/{restarts}/{digest}".format(
                name=job["name"],
                status=job["status"],
                restarts=job["restarts"],
                digest=(
                    "-"
                    if job["digest_ok"] is None
                    else ("OK" if job["digest_ok"] else "DIVERGED")
                ),
            )
            for job in row["jobs"]
        )
        lines.append(
            f"  {row['fleet_slots']:<6d} {row['storm_seed']:<11d} "
            f"{row['storm_events']:<7d} {row['revocations']:<8d} "
            f"{row['failed_jobs']:<7d} {row['serving']['retries']:<8d} "
            f"{row['serving']['shed']:<5d} {jobs}"
        )
    if report["violations"]:
        lines.append(f"  VIOLATIONS ({len(report['violations'])}):")
        for violation in report["violations"]:
            lines.append(f"    {violation}")
    else:
        lines.append(
            "  PASS: every surviving tenant bitwise-identical to its "
            "fault-free solo run, zero leaked leases, admitted serving "
            "requests inside the SLO"
        )
    return "\n".join(lines)
