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

The **invariant suite** per scenario:

1. the training plane quiesces — every job ends ``done`` or ``failed``
   (a failed job is a *bounded* outcome: restart budget spent, failure
   record in the report, fleet still running);
2. every finished job's digest is **bitwise identical** to a fault-free
   solo run (elastic jobs regardless of how often they were revoked and
   reshaped — the CSP claim under fleet unreliability);
3. **zero leaked leases**: after both planes finish, every physical
   slot is free, no lease is live, no revoked residual is held, no slot
   is still down;
4. no serving request is lost: every record ends ``hit``, ``completed``
   or ``shed`` — never ``pending``;
5. every *admitted, non-shed, never-retried* serving request whose
   lifetime avoids the revocation outage windows meets the latency SLO;
6. both planes' traces validate against the event-schema registry.

Storm draws, arrival processes and both virtual clocks are seeded, so
``fleet_sweep`` over the same config is byte-deterministic —
``tests/goldens.json`` pins the demo's report.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError, ServiceError
from repro.ft.chaos import sweep
from repro.ft.faults import FaultSchedule
from repro.ft.recovery import JobMemo
from repro.obs.events import validate_trace
from repro.payload import indented, reject_unknown
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec

# NOTE: repro.service and repro.serving import repro.ft.faults at module
# level, and this module is imported by repro.ft.__init__ — so both
# planes are imported lazily inside the functions that build them, or
# whichever of the three packages is imported first would close an
# import cycle.

__all__ = [
    "run_fleet_scenario",
    "fleet_sweep",
    "fleet_report_json",
    "format_fleet_report",
]

#: what a ``chaos-fleet`` config holds besides the scheduler's
#: :data:`~repro.service.scheduler.SCHEDULER_KNOBS`
_FLEET_KEYS = (
    "fleet_slots",
    "scenarios",
    "seed",
    "storm_mtbf_fraction",
    "node_down_weight",
    "preempt_outage_ms",
    "node_outage_ms",
    "serving",
    "jobs",
)


def _build_planes(
    payload: Mapping,
    fleet_slots: int,
    serving_telemetry=None,
    memo: Optional[JobMemo] = None,
) -> Tuple[ClusterManager, "ServingEngine", JobScheduler]:
    """One co-tenant deployment: shared manager, serving tenant leasing
    the lowest slots, training scheduler over the rest (its jobs start
    from the seeded inputs in ``memo``).

    ``serving_telemetry`` optionally arms a
    :class:`~repro.obs.telemetry.TelemetryHub` on the **serving** plane
    (scrapes live on one virtual clock, so a hub watches one plane; the
    shared manager's usage observer still shows it every fleet slot
    transition, including strikes routed to the training plane).
    """
    from repro.service.manager import ClusterManager
    from repro.service.scheduler import JobScheduler, JobSpec
    from repro.serving.frontend import ServingEngine, ServingSpec

    manager = ClusterManager(ClusterSpec(num_gpus=fleet_slots))
    scheduler = JobScheduler.from_payload(manager, payload, memo=memo)
    serving = ServingEngine(
        ServingSpec.from_payload(
            {**payload["serving"], "total_gpus": fleet_slots}
        ),
        manager=manager,
        slots_per_node=scheduler.slots_per_node,
        telemetry=serving_telemetry,
    )
    for index, entry in enumerate(payload["jobs"]):
        scheduler.submit(JobSpec.from_payload(entry, f"jobs[{index}]"))
    return manager, serving, scheduler


def _unfaulted_horizon(payload: Mapping, fleet_slots: int, memo: JobMemo) -> float:
    """The storm horizon: the slower of the two planes' fault-free
    makespans at this fleet size."""
    _manager, serving, scheduler = _build_planes(payload, fleet_slots, memo=memo)
    training = scheduler.run()
    result = serving.run()
    return max(training["makespan_ms"], result.makespan_ms)


def _check_training(
    payload: Mapping,
    report: Dict,
    fleet_slots: int,
    memo: JobMemo,
) -> Tuple[List[Dict], List[str]]:
    """Invariant 2: every finished job bitwise-matches its solo run
    (baselines memoised in ``memo`` across scenarios and fleets)."""
    from repro.service.scheduler import JobSpec, solo_verdict

    job_rows: List[Dict] = []
    violations: List[str] = []
    for entry, job in zip(payload["jobs"], report["jobs"]):
        row = {
            "name": job["name"],
            "sync": job["sync"],
            "elastic": job["elastic"],
            "status": job["status"],
            "restarts": job["restarts"],
            "resizes": job["resizes"],
            "preemptions": job["preemptions"],
            "segments": len(job["segments"]),
            "digest_ok": None,
        }
        if job["status"] == "failed":
            if job["failure"] is None:
                violations.append(
                    f"job {job['name']} failed without a failure record"
                )
            job_rows.append(row)
            continue
        if job["status"] != "done":
            violations.append(
                f"job {job['name']} ended {job['status']!r} (not done/failed)"
            )
            job_rows.append(row)
            continue
        verdict = solo_verdict(
            JobSpec.from_payload(entry), job, fleet_slots, memo
        )
        row["digest_ok"] = (
            verdict["digest_matches_solo"] and verdict["losses_match_solo"]
        )
        if not row["digest_ok"]:
            violations.append(
                f"job {job['name']} diverged from its fault-free solo run "
                f"({job['restarts']} restart(s), {job['resizes']} resize(s))"
            )
        job_rows.append(row)
    return job_rows, violations


def _check_serving(result, slo_ms: float) -> Tuple[Dict, List[str]]:
    """Invariants 4 and 5: no lost requests; admitted non-shed
    never-retried requests outside outage windows meet the SLO."""
    violations: List[str] = []
    lost = [r.request_id for r in result.records if r.outcome == "pending"]
    if lost:
        violations.append(
            f"{len(lost)} serving request(s) lost (still pending at "
            f"quiescence): {lost[:8]}"
        )
    windows = result.outage_windows
    slo_misses = []
    for record in result.records:
        if record.outcome != "completed" or record.retries > 0:
            continue
        if any(
            record.arrival_ms <= end and start <= record.done_ms
            for start, end in windows
        ):
            continue  # latency inflated by a revocation outage
        if record.latency_ms > slo_ms:
            slo_misses.append(record.request_id)
    if slo_misses:
        violations.append(
            f"{len(slo_misses)} admitted request(s) outside outage windows "
            f"missed the {slo_ms:g} ms SLO: {slo_misses[:8]}"
        )
    scenario = result.scenario_report()
    serving_row = {
        "requests": scenario["requests"],
        "completed": scenario["completed"],
        "shed": scenario["shed"],
        "retries": scenario["retries"],
        "retried_completed": scenario["retried"]["completed"],
        "revocations": scenario["revocations"],
        "outage_windows": len(windows),
        "slo_attainment": scenario["slo_attainment"],
        "p99_ms": scenario["latency_ms"]["p99"],
    }
    return serving_row, violations


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
    manager, serving, scheduler = _build_planes(
        payload, fleet_slots, serving_telemetry, memo
    )
    storm = FaultSchedule.fleet_from_mtbf(
        SeedSequenceTree(storm_seed),
        mtbf_ms=max(
            1.0, horizon_ms * float(payload.get("storm_mtbf_fraction", 0.2))
        ),
        horizon_ms=horizon_ms,
        fleet_slots=fleet_slots,
        slots_per_node=scheduler.slots_per_node,
        node_down_weight=float(payload.get("node_down_weight", 0.2)),
        preempt_outage_ms=float(payload.get("preempt_outage_ms", 120.0)),
        node_outage_ms=float(payload.get("node_outage_ms", 300.0)),
        stream_name=f"faults/fleet/{fleet_slots}",
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
    violations: List[str] = []

    # -- invariant 1: the training plane quiesces ----------------------
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

    # -- invariant 2: finished jobs bitwise-match solo -----------------
    job_rows, job_violations = _check_training(
        payload, training, fleet_slots, memo
    )
    violations.extend(job_violations)

    # -- invariant 3: zero leaked leases -------------------------------
    if manager.leased_gpus:
        violations.append(
            f"{manager.leased_gpus} GPU(s) still leased at quiescence"
        )
    if manager.residual_slots():
        violations.append(
            f"revoked residual slots never released: "
            f"{list(manager.residual_slots())}"
        )
    if manager.down_slots():
        violations.append(
            f"slots still down at quiescence: {list(manager.down_slots())}"
        )
    if manager.free_slots() != tuple(range(fleet_slots)):
        violations.append(
            f"free pool {list(manager.free_slots())} != all "
            f"{fleet_slots} slots"
        )

    # -- invariants 4 + 5: serving requests ----------------------------
    serving_row, serving_violations = _check_serving(
        result, serving.spec.slo_ms
    )
    violations.extend(serving_violations)

    # -- invariant 6: both traces schema-valid -------------------------
    for plane, trace in (("training", scheduler.trace), ("serving", result.trace)):
        problems = validate_trace(trace)
        if problems:
            violations.append(
                f"{plane} trace schema violations ({len(problems)}): "
                f"{problems[:3]}"
            )

    row.update(
        jobs=job_rows,
        serving=serving_row,
        revocations=manager.total_revocations + serving.revocations,
        failed_jobs=training["failed_jobs"],
        violations=violations,
    )
    return row


def fleet_sweep(payload: Mapping) -> Dict:
    """``scenarios`` storm seeds × every fleet size in the config, each
    with the full invariant suite — :func:`repro.ft.chaos.sweep` over
    :func:`run_fleet_scenario`; ``report["ok"]`` is the CI gate."""
    from repro.service.scheduler import SCHEDULER_KNOBS

    reject_unknown(payload, (*_FLEET_KEYS, *SCHEDULER_KNOBS), "fleet config")
    if not payload.get("jobs"):
        raise ConfigError('fleet config needs a non-empty "jobs" list')
    if not payload.get("serving"):
        raise ConfigError('fleet config needs a "serving" tenant entry')
    fleets = [int(f) for f in payload.get("fleet_slots", [8])]
    scenarios = int(payload.get("scenarios", 3))
    seed = int(payload.get("seed", 2022))

    # the horizon runs and every scenario share one memo: each job's
    # seeded inputs are derived once per sweep, each solo verdict once
    memo = JobMemo()
    horizons, report = sweep(
        fleets,
        scenarios,
        seed,
        baseline=_unfaulted_horizon,
        baseline_args=lambda fleet: dict(
            payload=payload, fleet_slots=fleet, memo=memo
        ),
        scenario=run_fleet_scenario,
        scenario_args=lambda fleet, _index, storm_seed, horizon_ms: dict(
            payload=payload,
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
        "seed": seed,
        "fleet_slots": fleets,
        "scenarios_per_fleet": scenarios,
        "total_storm_events": sum(row["storm_events"] for row in rows),
        "total_revocations": sum(
            row["revocations"] for row in rows if row["revocations"] is not None
        ),
        "horizons_ms": {str(f): horizons[f] for f in fleets},
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
