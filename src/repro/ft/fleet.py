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

from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError, ServiceError
from repro.ft.chaos import sweep
from repro.ft.faults import FaultSchedule
from repro.ft.recovery import JobMemo
from repro.invariants import requests_served, slots_released, trace_valid
from repro.payload import check, indented, integer, number, reject_unknown
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

#: the storm knobs of a ``chaos-fleet`` config → (default, must it be > 0)
_STORM_KNOBS = {
    "storm_mtbf_fraction": (0.2, True),
    "node_down_weight": (0.2, False),
    "preempt_outage_ms": (120.0, False),
    "node_outage_ms": (300.0, False),
}
#: what a ``chaos-fleet`` config holds besides the scheduler's
#: :data:`~repro.service.scheduler.SCHEDULER_KNOBS`
_FLEET_KEYS = ("fleet_slots", "scenarios", "seed", *_STORM_KNOBS, "serving", "jobs")
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
    from repro.service.manager import ClusterManager
    from repro.service.scheduler import JobScheduler, JobSpec
    from repro.serving.frontend import ServingEngine, ServingInputs, ServingSpec

    manager = ClusterManager(ClusterSpec(num_gpus=fleet_slots))
    scheduler = JobScheduler.from_payload(manager, payload, memo=memo, path="fleet config")
    spec = ServingSpec.from_payload({**payload["serving"], "total_gpus": fleet_slots})
    if memo is not None and memo.serving is None:
        memo.serving = ServingInputs(spec)
    serving = ServingEngine(
        spec,
        manager=manager,
        slots_per_node=scheduler.slots_per_node,
        telemetry=serving_telemetry,
        inputs=memo.serving if memo is not None else None,
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
    payload: Mapping, report: Dict, fleet_slots: int, memo: JobMemo
) -> Tuple[List[Dict], List[str]]:
    """Every job quiesced, and every finished one bitwise-matches its
    solo run (baselines memoised in ``memo`` across scenarios and
    fleets)."""
    from repro.service.scheduler import JobSpec, solo_verdict

    job_rows: List[Dict] = []
    violations: List[str] = []
    for entry, job in zip(payload["jobs"], report["jobs"]):
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


def _storm_knobs(payload: Mapping) -> Dict[str, float]:
    """The config's storm knobs, each checked, by key."""
    return {
        key: number("fleet config", key, payload.get(key, default), positive)
        for key, (default, positive) in _STORM_KNOBS.items()
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
    manager, serving, scheduler = _build_planes(
        payload, fleet_slots, serving_telemetry, memo
    )
    knobs = _storm_knobs(payload)
    storm = FaultSchedule.fleet_from_mtbf(
        SeedSequenceTree(storm_seed),
        mtbf_ms=max(1.0, horizon_ms * knobs.pop("storm_mtbf_fraction")),
        horizon_ms=horizon_ms,
        fleet_slots=fleet_slots,
        slots_per_node=scheduler.slots_per_node,
        stream_name=f"faults/fleet/{fleet_slots}",
        **knobs,
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
    job_rows, violations = _check_training(payload, training, fleet_slots, memo)
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
    from repro.service.scheduler import SCHEDULER_KNOBS

    reject_unknown(payload, (*_FLEET_KEYS, *SCHEDULER_KNOBS), "fleet config")
    if not payload.get("jobs"):
        raise ConfigError('fleet config needs a non-empty "jobs" list')
    if not payload.get("serving"):
        raise ConfigError('fleet config needs a "serving" tenant entry')
    path = "fleet config"
    slots = check(path, "fleet_slots", payload.get("fleet_slots", [8]), list)
    fleets = [integer(path, f"fleet_slots[{i}]", n, 1) for i, n in enumerate(slots)]
    scenarios = integer(path, "scenarios", payload.get("scenarios", 3), 1)
    seed = integer(path, "seed", payload.get("seed", 2022))
    _storm_knobs(payload)  # a bad storm knob is refused before any run

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
