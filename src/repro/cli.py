"""Command-line entry point: regenerate any paper table or figure.

Usage::

    naspipe list
    naspipe figure1
    naspipe figure5 --scale small
    naspipe table3 --spaces NLP.c2 CV.c2
    naspipe all --scale small

(also reachable as ``python -m repro ...``)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.common import ExperimentScale

__all__ = ["main"]

_EXPERIMENTS = (
    "figure1",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "table2",
    "table3",
    "table4",
    "table5",
    "dag-bound",
    "scheduler-cost",
    "ranking",
    "straggler",
    "repro-check",
    "demo",
)


def _scale_from_args(args) -> ExperimentScale:
    if args.scale == "paper":
        return ExperimentScale.paper()
    return ExperimentScale.small()


def _maybe_csv(name: str, rows, args) -> str:
    """Write rows to ``<csv_dir>/<name>.csv`` when ``--csv`` was given."""
    if not getattr(args, "csv", None):
        return ""
    from pathlib import Path

    from repro.experiments.export import write_csv

    directory = Path(args.csv)
    directory.mkdir(parents=True, exist_ok=True)
    path = write_csv(rows, directory / f"{name.replace('-', '_')}.csv")
    return f"\n[csv written to {path}]"


def _run_one(name: str, args) -> str:
    scale = _scale_from_args(args)
    spaces: Optional[List[str]] = args.spaces or None
    if name == "figure1":
        from repro.experiments import figure1

        return figure1.format_text(figure1.run(seed=args.seed))
    if name == "figure4":
        from repro.experiments import figure4

        return figure4.format_text(figure4.run(spaces=spaces, seed=args.seed))
    if name == "figure5":
        from repro.experiments import figure5

        rows = figure5.run(scale, spaces=spaces)
        return figure5.format_text(rows) + _maybe_csv(name, rows, args)
    if name == "figure6":
        from repro.experiments import figure6

        rows = figure6.run(scale, spaces=spaces)
        return figure6.format_text(rows) + _maybe_csv(name, rows, args)
    if name == "figure7":
        from repro.experiments import figure7

        rows = figure7.run(scale)
        return figure7.format_text(rows) + _maybe_csv(name, rows, args)
    if name == "table2":
        from repro.experiments import table2

        rows = table2.run(scale, spaces=spaces, with_scores=args.scores)
        return table2.format_text(rows) + _maybe_csv(name, rows, args)
    if name == "table3":
        from repro.experiments import table3

        return table3.format_text(table3.run(spaces=spaces, seed=args.seed))
    if name == "table4":
        from repro.experiments import table4

        return table4.format_text(table4.run(seed=args.seed))
    if name == "table5":
        from repro.experiments import table5

        rows = table5.run()
        return table5.format_text(rows) + _maybe_csv(name, rows, args)
    if name == "dag-bound":
        from repro.experiments import dag_bound

        rows = dag_bound.run(space_names=spaces)
        return dag_bound.format_text(rows) + _maybe_csv(name, rows, args)
    if name == "scheduler-cost":
        from repro.experiments import scheduler_cost

        out = []
        if args.json or args.baseline:
            # Stream-length scaling: readiness index vs scan reference,
            # emitted as BENCH_scheduler.json and optionally gated
            # against a committed baseline (CI regression check).
            lens = tuple(args.stream_lens or (100, 300, 1000))
            payload = scheduler_cost.run_scaling(
                stream_lens=lens, seed=args.seed
            )
            out.append(scheduler_cost.format_scaling_text(payload))
            if args.json:
                path = scheduler_cost.write_bench_json(payload, args.json)
                out.append(f"[bench written to {path}]")
            if args.baseline:
                failures = scheduler_cost.check_regression(
                    payload, args.baseline
                )
                if failures:
                    raise SystemExit(
                        "scheduler cost regression:\n  "
                        + "\n  ".join(failures)
                    )
                out.append(f"[no regression vs {args.baseline}]")
            return "\n".join(out)
        rows = scheduler_cost.run(seed=args.seed)
        return scheduler_cost.format_text(rows) + _maybe_csv(name, rows, args)
    if name == "ranking":
        from repro.experiments import ranking

        rows = ranking.run(seed=args.seed)
        return ranking.format_text(rows) + _maybe_csv(name, rows, args)
    if name == "straggler":
        from repro.experiments import straggler

        return straggler.format_text(straggler.run(seed=args.seed))
    if name == "repro-check":
        return _repro_check(args.seed)
    if name == "demo":
        return _demo(args.seed)
    raise SystemExit(f"unknown experiment {name!r}")


def _load_run_config(config_path, default_seed=2022):
    """Parse a JSON run config and resolve it to run_system kwargs.

    Shared by ``trace`` and ``analyze``: the same config file drives
    both.  Returns ``(config_dict, scale, run_kwargs)``.
    """
    import json

    config = json.loads(config_path.read_text())
    scale = ExperimentScale(
        subnets=int(config.get("subnets", 24)),
        num_gpus=int(config.get("num_gpus", 4)),
        seed=int(config.get("seed", default_seed)),
        stream_kind=config.get("stream_kind", "generational"),
    )
    run_kwargs = dict(
        batch=config.get("batch"),
        space_overrides=config.get("space_overrides"),
        **config.get("overrides", {}),
    )
    return config, scale, run_kwargs


def _run_config(config, scale, run_kwargs):
    from repro.experiments.common import run_system

    result = run_system(
        config.get("space", "NLP.c3"),
        config.get("system", "NASPipe"),
        scale,
        **run_kwargs,
    )
    if result is None:
        raise SystemExit(
            f"{config.get('system')} ran out of memory on "
            f"{config.get('space')} — no schedule to trace or analyze"
        )
    return result


def _config_identity(config, num_gpus, scale):
    """The registry's config-digest payload for a CLI-config run."""
    return {
        "space": config.get("space", "NLP.c3"),
        "space_overrides": config.get("space_overrides") or {},
        "system": config.get("system", "NASPipe"),
        "overrides": config.get("overrides") or {},
        "num_gpus": num_gpus,
        "subnets": scale.subnets,
        "batch": config.get("batch"),
        "seed": scale.seed,
        "stream_kind": scale.stream_kind,
    }


def _analyze_one_gpu_count(task):
    """One GPU count's analysis — module-level so ``--jobs`` can ship it
    to a worker process.  Returns ``(payload_entry, lines, record)``;
    ``record`` is the registry record (or None), appended by the
    *parent* in sweep order so the registry stays deterministic.
    """
    config, scale, run_kwargs, gpus, register = task

    from repro.obs import what_if_report
    from repro.obs.registry import run_record

    result = _run_config(config, scale, dict(run_kwargs, num_gpus=gpus))
    breakdown = result.critical_path()
    whatif = what_if_report(result.trace)
    entry = {
        "num_gpus": gpus,
        "summary": result.trace_summary(),
        "critical_path": breakdown,
        "what_if": whatif,
    }
    lines = [
        f"{result.system} on {result.space}, D={gpus}: "
        f"makespan {breakdown['makespan_ms']:.1f} ms, "
        f"critical path {breakdown['num_segments']} segments",
        "  critical path by resource (ms / fraction):",
    ]
    for resource, ms in breakdown["by_resource_ms"].items():
        if ms <= 0:
            continue
        fraction = breakdown["by_resource_fraction"][resource]
        lines.append(f"    {resource:<16s} {ms:10.1f}  {fraction:6.1%}")
    lines.append("  what-if projections (ranked by savings):")
    for name in whatif["ranked"]:
        scenario = whatif["scenarios"][name]
        lines.append(
            f"    {name:<20s} -> {scenario['projected_makespan_ms']:10.1f} ms "
            f"(saves {scenario['savings_ms']:8.1f} ms, "
            f"{scenario['savings_fraction']:5.1%})"
        )
    record = None
    if register:
        record = run_record(
            result, identity=_config_identity(config, gpus, scale)
        )
    return entry, lines, record


def _analyze(args) -> str:
    """``naspipe analyze <config>``: run one configured schedule, print
    the critical-path breakdown and what-if projections, and optionally
    file the run in the registry.

    Takes the same JSON config as ``naspipe trace`` (plus optional
    ``space_overrides``).  ``--sweep-gpus 2 4 8`` repeats the analysis
    per GPU count; ``--jobs N`` shards the sweep over N worker
    processes (output and registry order stay byte-identical to a
    serial sweep); ``--json PATH`` writes the machine-readable payload
    (deterministic canonical JSON); ``--register`` appends a run record
    to ``--registry`` (default ``.naspipe/runs.jsonl``).  See
    ``docs/ANALYSIS.md`` for what the numbers mean.
    """
    import json
    from pathlib import Path

    from repro.obs.registry import append_run

    config_path = Path(args.config)
    config, scale, run_kwargs = _load_run_config(
        config_path, default_seed=args.seed
    )
    gpu_counts = [int(g) for g in (args.sweep_gpus or [scale.num_gpus])]
    tasks = [
        (config, scale, run_kwargs, gpus, args.register)
        for gpus in gpu_counts
    ]
    jobs = getattr(args, "jobs", 1) or 1
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_analyze_one_gpu_count, tasks))
    else:
        outcomes = [_analyze_one_gpu_count(task) for task in tasks]

    lines = []
    payload = {"schema": 1, "config": str(config_path), "runs": []}
    for entry, gpu_lines, record in outcomes:
        payload["runs"].append(entry)
        lines.extend(gpu_lines)
        if record is not None:
            registry_path = append_run(record, args.registry)
            lines.append(
                f"  [registered run {record['run_id']} in {registry_path}]"
            )
        lines.append("")
    if args.json:
        out = Path(args.json)
        out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        lines.append(f"[analysis written to {out}]")
    return "\n".join(lines).rstrip()


def _compare(args) -> str:
    """``naspipe compare <run-a> <run-b>``: field-by-field diff of two
    registry records.

    Each reference is a record file (JSON/JSONL, last record wins) or a
    ``run_id`` prefix resolved against ``--registry``.  With
    ``--fail-on-regression PCT`` the command exits non-zero when run B's
    makespan or bubble ratio is worse than run A's by more than PCT
    percent (``100`` = the 2x CI gate).  Output is byte-deterministic.
    """
    from repro.obs.registry import (
        check_regression,
        compare_records,
        format_compare,
        resolve_run,
    )

    record_a = resolve_run(args.config, args.registry)
    record_b = resolve_run(args.config2, args.registry)
    comparison = compare_records(record_a, record_b)
    text = format_compare(comparison).rstrip()
    if args.fail_on_regression is not None:
        failures = check_regression(comparison, args.fail_on_regression)
        if failures:
            print(text)
            raise SystemExit(
                "regression vs baseline:\n  " + "\n  ".join(failures)
            )
        text += (
            f"\n[no regression beyond {args.fail_on_regression:g}% threshold]"
        )
    return text


def _trace(args) -> str:
    """``naspipe trace <config>``: run one configured pipeline schedule,
    export it as Chrome Trace Event JSON (Perfetto-loadable) and print
    where to view it; ``--summary`` adds the bubble-attribution report.

    The config is a small JSON object, e.g. ``examples/trace_demo.json``::

        {"space": "NLP.c3", "system": "NASPipe", "num_gpus": 4,
         "subnets": 24, "batch": 32, "seed": 2022}

    ``system`` accepts any :func:`repro.baselines.system_by_name` name;
    extra keys under ``"overrides"`` are forwarded to it (e.g.
    ``{"overrides": {"cache_capacity_mb": 64}}``).  ``--summary-json
    PATH`` writes the same summary as canonical machine-readable JSON
    (byte-identical across identical runs — the registry's input).
    """
    from pathlib import Path

    from repro.obs import format_summary, run_summary, summary_json

    config_path = Path(args.config)
    config, scale, run_kwargs = _load_run_config(
        config_path, default_seed=args.seed
    )
    result = _run_config(config, scale, run_kwargs)
    out = Path(args.out or "run.trace.json")
    result.trace_export(path=out, label=config.get("label", config_path.stem))
    lines = [
        f"wrote {out} ({out.stat().st_size} bytes, "
        f"{len(result.trace.events)} typed events) — "
        "open in https://ui.perfetto.dev or chrome://tracing",
    ]
    summary = None
    if args.summary:
        summary = run_summary(result)
        lines.append("")
        lines.append(format_summary(summary))
    if args.summary_json:
        if summary is None:
            summary = run_summary(result)
        json_path = Path(args.summary_json)
        json_path.write_text(summary_json(summary))
        lines.append(f"[summary JSON written to {json_path}]")
    return "\n".join(lines)


def _faults(args) -> str:
    """``naspipe faults <config>``: run one fault-injection scenario and
    report availability metrics plus the digest comparison against the
    fault-free baseline.

    The config is a small JSON object, e.g. ``examples/faults_demo.json``::

        {"space": "NLP.c3", "system": "NASPipe", "num_gpus": 4,
         "subnets": 24, "seed": 2022, "checkpoint_interval": 8,
         "faults": [{"kind": "gpu_crash", "time_ms": 600.0, "target": 1}]}

    Instead of an explicit ``"faults"`` list, ``"mtbf_ms"`` draws a
    seeded schedule over the baseline's makespan.  ``"recovery_gpus"``
    restarts on a different GPU count (elastic rescale); under CSP the
    digest still matches the fault-free run bitwise.  ``--json PATH``
    also writes the machine-readable availability summary.
    """
    import json
    import tempfile
    from pathlib import Path

    from repro.baselines import system_by_name
    from repro.ft import (
        FaultSchedule,
        RecoverySpec,
        availability_summary,
        format_availability,
        run_uninterrupted,
        run_with_recovery,
    )
    from repro.seeding import SeedSequenceTree
    from repro.supernet.search_space import get_search_space

    config_path = Path(args.config)
    config = json.loads(config_path.read_text())
    space = get_search_space(config.get("space", "NLP.c3"))
    if config.get("space_overrides"):
        space = space.scaled(**config["space_overrides"])
    system = system_by_name(
        config.get("system", "NASPipe"), **config.get("overrides", {})
    )
    num_gpus = int(config.get("num_gpus", 4))
    steps = int(config.get("subnets", 24))
    seed = int(config.get("seed", args.seed))
    batch = config.get("batch")
    common = dict(num_gpus=num_gpus, steps=steps, seed=seed, batch=batch)

    baseline = run_uninterrupted(space, system, **common)
    if "faults" in config:
        schedule = FaultSchedule.from_payload(config["faults"])
    else:
        schedule = FaultSchedule.from_mtbf(
            SeedSequenceTree(seed),
            mtbf_ms=float(config.get("mtbf_ms", baseline.makespan_ms / 2)),
            horizon_ms=baseline.makespan_ms,
            num_gpus=num_gpus,
        )
    spec = RecoverySpec(
        checkpoint_interval=int(config.get("checkpoint_interval", 8)),
        restart_gpus=config.get("recovery_gpus"),
    )

    def run(directory):
        return run_with_recovery(
            space,
            system,
            schedule,
            checkpoint_dir=directory,
            spec=spec,
            **common,
        )

    if config.get("checkpoint_dir"):
        faulted = run(config["checkpoint_dir"])
    else:
        with tempfile.TemporaryDirectory(prefix="naspipe-faults-") as tmp:
            faulted = run(tmp)

    summary = availability_summary(faulted, baseline)
    lines = [
        f"fault schedule: {len(schedule)} event(s)",
        *(
            f"  t={event.time_ms:9.2f}ms  {event.kind:>11s} @ {event.target}"
            for event in schedule
        ),
        "",
        format_availability(summary),
    ]
    if args.json:
        out = Path(args.json)
        out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        lines.append(f"[availability summary written to {out}]")
    return "\n".join(lines)


def _chaos(args) -> str:
    """``naspipe chaos <config>``: seeded randomized robustness sweep.

    Draws ``--seeds`` non-fatal fault schedules per GPU count, runs each
    with the degradation manager armed, and checks the invariant suite
    (completion, bitwise digest vs the unfaulted baseline, trace
    validity, memory cap, bubble accounting).  Exits non-zero on any
    violation, so the sweep is CI-gateable (``make chaos-smoke``).

    The config is a small JSON object, e.g. ``examples/chaos_demo.json``::

        {"space": "NLP.c3", "space_overrides": {"num_blocks": 8},
         "system": "NASPipe", "gpus": [2, 4], "subnets": 12,
         "seed": 2022, "mtbf_fraction": 0.1}

    ``--json PATH`` also writes the machine-readable sweep report.
    """
    import json
    from pathlib import Path

    from repro.baselines import system_by_name
    from repro.ft import chaos_sweep, format_chaos_report
    from repro.supernet.search_space import get_search_space

    config_path = Path(args.config)
    config = json.loads(config_path.read_text())
    space = get_search_space(config.get("space", "NLP.c3"))
    if config.get("space_overrides"):
        space = space.scaled(**config["space_overrides"])
    system = system_by_name(
        config.get("system", "NASPipe"), **config.get("overrides", {})
    )
    gpus = config.get("gpus") or [int(config.get("num_gpus", 4))]
    report = chaos_sweep(
        space,
        system,
        scenarios=args.seeds,
        gpus=[int(g) for g in gpus],
        steps=int(config.get("subnets", 12)),
        seed=int(config.get("seed", args.seed)),
        mtbf_fraction=float(config.get("mtbf_fraction", 0.1)),
        stall_ms=float(config.get("stall_ms", 20.0)),
        nic_slowdown=float(config.get("nic_slowdown", 4.0)),
        degradation=config.get("degradation", True),
        batch=config.get("batch"),
        jobs=getattr(args, "jobs", 1) or 1,
    )
    text = format_chaos_report(report)
    if args.json:
        out = Path(args.json)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        text += f"\n[chaos report written to {out}]"
    if not report["ok"]:
        print(text)
        raise SystemExit(
            f"chaos sweep failed: {len(report['violations'])} invariant "
            "violation(s)"
        )
    return text


def _chaos_fleet(args) -> str:
    """``naspipe chaos-fleet <config>``: fleet-scale preemption storms.

    Runs a multi-tenant mix (elastic CSP + rigid + serving) on shared
    fleets while seeded preemption storms (``slot_preempt`` /
    ``node_down``) revoke leases mid-run, then checks the fleet
    invariant suite: every surviving CSP tenant's digest is bitwise
    identical to its fault-free solo run, no lease leaks, the scheduler
    quiesces, and admitted non-retried serving requests outside outage
    windows meet the SLO.  Exits non-zero on any violation, so the
    sweep is CI-gateable (``make chaos-fleet``).

    The config is a JSON object, e.g. ``examples/chaos_fleet_demo.json``::

        {"fleet_slots": [8], "scenarios": 2, "seed": 2022,
         "storm_mtbf_fraction": 0.25, "slots_per_node": 4,
         "serving": {...}, "jobs": [...]}

    ``--json PATH`` writes the canonical machine-readable sweep report
    (byte-identical across identical runs; the ``chaos-fleet-smoke``
    CI gate ``cmp``'s two of them).  See ``docs/FAULT_TOLERANCE.md``.
    """
    import json
    from pathlib import Path

    from repro.ft import fleet_report_json, fleet_sweep, format_fleet_report

    config_path = Path(args.config)
    payload = json.loads(config_path.read_text())
    report = fleet_sweep(payload)
    text = format_fleet_report(report)
    if args.json:
        out = Path(args.json)
        out.write_text(fleet_report_json(report))
        text += f"\n[fleet chaos report written to {out}]"
    if not report["ok"]:
        print(text)
        raise SystemExit(
            f"fleet chaos sweep failed: {len(report['violations'])} "
            "invariant violation(s)"
        )
    return text


def _serve(args) -> str:
    """``naspipe serve <jobs.json>``: run a multi-tenant job mix on one
    shared simulated fleet and report per-job outcomes.

    The config declares the fleet and the jobs, e.g.
    ``examples/serve_demo.json``::

        {"total_gpus": 8, "quantum": 6, "verify_solo": true,
         "jobs": [
           {"name": "tenant-a", "space": "NLP.c3", "min_gpus": 2,
            "max_gpus": 6, "subnets": 18, "priority": 2},
           ...]}

    Jobs share the fleet through :class:`repro.service.ClusterManager`
    leases; CSP jobs grow/shrink/preempt at consistent segment cuts.
    With ``"verify_solo": true`` (or ``--verify``) every job is re-run
    alone and its digest compared bitwise — any mismatch exits non-zero.
    ``--json PATH`` writes the canonical machine-readable report
    (byte-identical across identical runs; the ``service-smoke`` CI
    gate ``cmp``'s two of them).  See ``docs/OPERATIONS.md``.
    """
    import json
    from pathlib import Path

    from repro.service import (
        format_service_report,
        run_service,
        service_report_json,
    )

    config_path = Path(args.config)
    payload = json.loads(config_path.read_text())
    report = run_service(
        payload, verify_solo=True if args.verify else None
    )
    text = format_service_report(report)
    if args.json:
        out = Path(args.json)
        out.write_text(service_report_json(report))
        text += f"\n[service report written to {out}]"
    if not report["ok"]:
        print(text)
        raise SystemExit(
            "per-tenant determinism violated: at least one job's digest "
            "diverged from its solo run"
        )
    return text


def _bench_serving(args) -> str:
    """``naspipe bench-serving <config>``: run the subnet-evaluation
    serving benchmark (cache on / cache off / overload) and report
    latency percentiles, throughput, hit/shed rates and SLO attainment.

    The config is a small JSON object, e.g.
    ``examples/serving_demo.json``::

        {"space": "NLP.c3", "num_gpus": 4, "total_gpus": 8,
         "requests": 300, "arrival": "poisson", "rate_rps": 60,
         "skew": 0.7, "repeat_fraction": 0.3, "seed": 2022,
         "max_batch": 8, "max_linger_ms": 6.0, "queue_bound": 48,
         "slo_ms": 250.0}

    ``--json PATH`` writes the canonical ``BENCH_serving.json`` payload
    (byte-identical across identical runs — the ``serving-smoke`` CI
    job ``cmp``'s two of them); ``--baseline PATH`` gates p99 latency
    and throughput against a committed baseline and exits non-zero on
    regression, determinism violation, or a broken structural claim
    (cache must strictly help; admitted overload requests must meet the
    SLO).  See ``docs/SERVING.md``.
    """
    import json
    from pathlib import Path

    from repro.serving import (
        check_regression,
        format_serving_report,
        run_bench,
        serving_report_json,
    )

    config_path = Path(args.config)
    payload = run_bench(json.loads(config_path.read_text()))
    out = [format_serving_report(payload)]
    if args.json:
        target = Path(args.json)
        target.write_text(serving_report_json(payload))
        out.append(f"[serving bench written to {target}]")
    if args.baseline:
        failures = check_regression(payload, args.baseline)
        if failures:
            print("\n".join(out))
            raise SystemExit(
                "serving regression:\n  " + "\n  ".join(failures)
            )
        out.append(f"[no regression vs {args.baseline}]")
    return "\n".join(out)


def _monitor(args) -> str:
    """``naspipe monitor <config>``: run a plane with the live telemetry
    hub armed — deterministic metrics scraping on the virtual clock,
    alert-rule evaluation at scrape points, per-tenant usage metering —
    and print a scrape-by-scrape tail plus the final alert and metering
    reports.

    The config is a **service** config (has ``"jobs"``, e.g.
    ``examples/serve_demo.json``) or a **serving** config (has
    ``"space"``, e.g. ``examples/serving_demo.json``).  Flags:

    * ``--rules PATH`` — JSON alert rules (default: the built-in rules,
      silent on healthy runs; see ``docs/TELEMETRY.md``);
    * ``--interval MS`` — scrape interval in virtual ms (default 100);
    * ``--out PATH`` — write the scrape series as canonical JSONL;
    * ``--prom PATH`` — write the final Prometheus text exposition;
    * ``--json PATH`` — write the monitor report (alerts + metering).

    Every output is byte-identical across identical runs — the
    ``monitor-smoke`` CI job runs this twice and ``cmp``'s the files —
    and arming the hub changes nothing: engine decisions, digests and
    reports are bitwise the same with telemetry on or off.
    """
    import json
    from pathlib import Path

    from repro.obs.telemetry import TelemetryHub
    from repro.viz import utilization_sparklines

    config_path = Path(args.config)
    payload = json.loads(config_path.read_text())
    interval = float(getattr(args, "interval", None) or 100.0)
    hub = TelemetryHub(scrape_interval_ms=interval, rules=args.rules)

    if "jobs" in payload:
        from repro.service import run_service

        run_service(payload, telemetry=hub)
        trace = None  # the service trace has no busy intervals to plot
    else:
        from repro.serving.frontend import ServingEngine, ServingSpec

        result = ServingEngine(
            ServingSpec.from_payload(payload), telemetry=hub
        ).run()
        trace = result.trace

    alerts = hub.alert_report()
    metering = hub.metering_report()
    lines = [
        f"monitor: {len(hub.scraper.samples)} scrape(s) every "
        f"{interval:g} virtual ms ({config_path.name})",
        "",
    ]
    lines.extend(hub.scraper.tail_lines())
    if trace is not None and trace.intervals:
        lines.append("")
        lines.extend(utilization_sparklines(trace))
    lines.append("")
    if alerts["log"]:
        lines.append(f"alerts ({alerts['firings']} firing(s)):")
        for entry in alerts["log"]:
            resolved = (
                f"resolved at {entry['resolved_at_ms']:g} ms"
                if entry["resolved_at_ms"] is not None
                else "still firing at quiescence"
            )
            lines.append(
                f"  {entry['rule']} [{entry['kind']}] fired at "
                f"{entry['fired_at_ms']:g} ms, {resolved}"
            )
    else:
        lines.append(f"alerts: none fired ({len(alerts['rules'])} rule(s))")
    lines.append("")
    lines.append(hub.meter.format_report(metering))

    if args.out:
        series_path = Path(args.out)
        series_path.write_text(hub.scraper.series_jsonl())
        lines.append(f"\n[scrape series written to {series_path}]")
    if getattr(args, "prom", None):
        prom_path = Path(args.prom)
        prom_path.write_text(hub.scraper.prometheus_text())
        lines.append(f"[prometheus exposition written to {prom_path}]")
    if args.json:
        report = {
            "schema": 1,
            "scrape_interval_ms": interval,
            "scrapes": len(hub.scraper.samples),
            "alerts": alerts,
            "metering": metering,
            "peak_queue_depth": hub.peak_queue_depth(),
        }
        json_path = Path(args.json)
        json_path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        lines.append(f"[monitor report written to {json_path}]")
    return "\n".join(lines)


def _demo(seed: int) -> str:
    """A guided tour: run NASPipe on a short stream, narrate the first
    events, then show the schedule as a Gantt chart and sparklines."""
    from repro.baselines import naspipe
    from repro.engines.pipeline import PipelineEngine
    from repro.seeding import SeedSequenceTree
    from repro.sim.cluster import ClusterSpec
    from repro.supernet.sampler import SubnetStream
    from repro.supernet.search_space import get_search_space
    from repro.supernet.supernet import Supernet
    from repro.viz import ascii_gantt, utilization_sparklines

    space = get_search_space("NLP.c2")
    supernet = Supernet(space)
    stream = SubnetStream.sample_generational(
        space, SeedSequenceTree(seed), 40
    )
    narration = []

    def listener(kind, stage, subnet_id, time):
        if len(narration) < 14 and kind in ("fwd-start", "subnet-complete"):
            narration.append(
                f"  t={time:8.1f}ms  {kind:>15s}  SN{subnet_id:<3d} @P{stage}"
            )

    engine = PipelineEngine(
        supernet, stream, naspipe(), ClusterSpec(num_gpus=4),
        event_listener=listener,
    )
    result = engine.run()
    lines = [
        f"NASPipe demo — {space.name}, 4 simulated GPUs, 40 subnets",
        "",
        "first events:",
        *narration,
        "",
        "schedule (first quarter):",
        ascii_gantt(result.trace, width=96, end=result.trace.makespan / 4),
        "",
        "GPU utilisation over the whole run:",
        utilization_sparklines(result.trace, buckets=80),
        "",
        result.summary(),
    ]
    return "\n".join(lines)


def _repro_check(seed: int) -> str:
    """Quick bitwise-reproducibility self-check (the artifact's core
    experiment): CSP on 1 vs 4 GPUs must match sequential exactly."""
    from repro.replay import execute_manifest, record_run

    lines = ["Reproducibility self-check (CSP vs sequential, 1 vs 4 GPUs)"]
    manifest = record_run(
        "NLP.c2",
        "NASPipe",
        space_overrides={"num_blocks": 16, "functional_width": 16},
        num_gpus=4,
        seed=seed,
        steps=32,
        batch=32,
    )
    single = record_run(
        "NLP.c2",
        "NASPipe",
        space_overrides={"num_blocks": 16, "functional_width": 16},
        num_gpus=1,
        seed=seed,
        steps=32,
        batch=32,
    )
    if manifest.digest == single.digest:
        lines.append(f"PASS: digests match ({manifest.digest[:16]}…)")
    else:
        lines.append(
            f"FAIL: {manifest.digest[:16]}… != {single.digest[:16]}…"
        )
    replay = execute_manifest(manifest)
    lines.append(
        "PASS: replay reproduced the 4-GPU run bitwise"
        if replay.digest == manifest.digest
        else "FAIL: replay diverged"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="naspipe",
        description="NASPipe reproduction — regenerate paper tables/figures",
    )
    parser.add_argument(
        "experiment",
        choices=_EXPERIMENTS
        + (
            "trace",
            "analyze",
            "compare",
            "faults",
            "chaos",
            "chaos-fleet",
            "serve",
            "bench-serving",
            "monitor",
            "all",
            "list",
        ),
        help="which table/figure to regenerate ('trace' exports a "
        "Perfetto-compatible run trace; 'analyze' prints the "
        "critical-path breakdown and what-if projections; 'compare' "
        "diffs two registry records; 'faults' runs a fault-injection "
        "scenario with recovery; 'chaos' runs a seeded randomized "
        "robustness sweep; 'chaos-fleet' runs seeded preemption storms "
        "against a multi-tenant fleet and checks the recovery "
        "invariants; 'serve' runs a multi-tenant job mix on a "
        "shared fleet; 'bench-serving' runs the subnet-evaluation "
        "serving benchmark with latency percentiles and SLO stats; "
        "'monitor' runs a service/serving config with the live "
        "telemetry plane armed — deterministic scrapes, alerts and "
        "per-tenant usage metering)",
    )
    parser.add_argument(
        "config",
        nargs="?",
        help="trace/analyze/faults/chaos/chaos-fleet/serve: JSON run "
        "config (see examples/trace_demo.json, examples/faults_demo.json, "
        "examples/chaos_demo.json, examples/chaos_fleet_demo.json and "
        "examples/serve_demo.json); "
        "compare: run A (record file or run_id prefix)",
    )
    parser.add_argument(
        "config2",
        nargs="?",
        help="compare: run B (record file or run_id prefix)",
    )
    parser.add_argument(
        "--scale",
        choices=("small", "paper"),
        default="small",
        help="experiment size (small: CI-friendly; paper: full streams)",
    )
    parser.add_argument(
        "--spaces",
        nargs="*",
        help="restrict to these search spaces (e.g. NLP.c1 CV.c2)",
    )
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write row-list experiments as CSV into this directory",
    )
    parser.add_argument(
        "--scores",
        action="store_true",
        help="table2: add the Score column (scaled functional runs; slower)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="scheduler-cost: run the stream-scaling benchmark and write "
        "its payload (BENCH_scheduler.json) here; faults: write the "
        "machine-readable availability summary here; chaos: write the "
        "machine-readable sweep report here; chaos-fleet: write the "
        "canonical fleet storm report here; serve: write the canonical "
        "service report here (byte-deterministic); bench-serving: write "
        "the canonical serving benchmark (BENCH_serving.json) here",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=10,
        help="chaos: number of seeded fault schedules per GPU count",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="scheduler-cost: fail (exit 1) if mean per-call time "
        "regresses >2x against this committed baseline JSON; "
        "bench-serving: fail if p99 latency or throughput regresses >2x "
        "against it (plus bitwise determinism checks)",
    )
    parser.add_argument(
        "--stream-lens",
        type=int,
        nargs="*",
        help="scheduler-cost: stream lengths for the scaling benchmark",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="trace: write the Chrome trace JSON here "
        "(default run.trace.json)",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="trace: also print the bubble-attribution run summary",
    )
    parser.add_argument(
        "--summary-json",
        metavar="PATH",
        help="trace: write the run summary as canonical JSON here "
        "(deterministic; the registry's input format)",
    )
    parser.add_argument(
        "--sweep-gpus",
        type=int,
        nargs="*",
        help="analyze: repeat the analysis at these GPU counts "
        "(default: the config's num_gpus)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="analyze/chaos: shard the sweep across N worker processes; "
        "the merged output is byte-identical to a serial run",
    )
    parser.add_argument(
        "--register",
        action="store_true",
        help="analyze: append the run record to the registry",
    )
    parser.add_argument(
        "--registry",
        metavar="PATH",
        help="analyze/compare: registry JSONL path "
        "(default .naspipe/runs.jsonl)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="serve: re-run every job alone and require each digest to "
        "match its shared-fleet run bitwise (overrides the config's "
        "verify_solo)",
    )
    parser.add_argument(
        "--rules",
        metavar="PATH",
        help="monitor: JSON alert-rule file (default: built-in rules, "
        "silent on healthy runs — see docs/TELEMETRY.md)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        metavar="MS",
        help="monitor: scrape interval in virtual milliseconds "
        "(default 100)",
    )
    parser.add_argument(
        "--prom",
        metavar="PATH",
        help="monitor: write the final Prometheus text exposition here "
        "(virtual timestamps omitted; byte-deterministic)",
    )
    parser.add_argument(
        "--fail-on-regression",
        type=float,
        metavar="PCT",
        help="compare: exit non-zero when run B's makespan or bubble "
        "ratio is worse than run A's by more than PCT percent "
        "(100 = the 2x CI gate)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print(
            "\n".join(
                _EXPERIMENTS
                + (
                    "trace",
                    "analyze",
                    "compare",
                    "faults",
                    "chaos",
                    "chaos-fleet",
                    "serve",
                    "bench-serving",
                    "monitor",
                )
            )
        )
        return 0

    if args.experiment == "trace":
        if not args.config:
            parser.error("trace requires a JSON run config path")
        print(_trace(args))
        return 0

    if args.experiment == "analyze":
        if not args.config:
            parser.error("analyze requires a JSON run config path")
        print(_analyze(args))
        return 0

    if args.experiment == "compare":
        if not args.config or not args.config2:
            parser.error("compare requires two run references")
        print(_compare(args))
        return 0

    if args.experiment == "faults":
        if not args.config:
            parser.error("faults requires a JSON run config path")
        print(_faults(args))
        return 0

    if args.experiment == "chaos":
        if not args.config:
            parser.error("chaos requires a JSON run config path")
        print(_chaos(args))
        return 0

    if args.experiment == "chaos-fleet":
        if not args.config:
            parser.error("chaos-fleet requires a JSON fleet config path")
        print(_chaos_fleet(args))
        return 0

    if args.experiment == "serve":
        if not args.config:
            parser.error("serve requires a JSON jobs config path")
        print(_serve(args))
        return 0

    if args.experiment == "bench-serving":
        if not args.config:
            parser.error("bench-serving requires a JSON serving config path")
        print(_bench_serving(args))
        return 0

    if args.experiment == "monitor":
        if not args.config:
            parser.error("monitor requires a JSON service/serving config path")
        print(_monitor(args))
        return 0

    names = list(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.time()
        print(_run_one(name, args))
        print(f"[{name} in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
