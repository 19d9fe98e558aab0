"""Command-line entry point: regenerate any paper table or figure.

Usage::

    naspipe list
    naspipe figure1
    naspipe figure5 --scale small
    naspipe table3 --spaces NLP.c2 CV.c2
    naspipe all --scale small
    naspipe <command> --help

(also reachable as ``python -m repro ...``)

Each command is declared beside its handler with exactly the options
the handler reads (any other flag is a usage error, exit 2), and the
handler's docstring is the command's ``--help``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigError
from repro.payload import indented, reject_unknown

__all__ = ["main", "build_parser"]


def _output_path(path: str) -> str:
    """A file-writing option's value: its directory must exist, so a
    typo is a usage error (exit 2) before the run, not a traceback after."""
    directory = Path(path).parent
    if not directory.is_dir():
        raise argparse.ArgumentTypeError(f"directory {str(directory)!r} does not exist")
    return path


#: every option's ``add_argument`` spec, once; a command lists the ones it
#: reads by name and says in its docstring what it does with them
_OPTIONS = {
    "config": dict(help="JSON config file; for compare, run A"),
    "config2": dict(help="run B (A and B: a record file or a run_id prefix)"),
    "--scale": dict(
        choices=("small", "paper"),
        default="small",
        help="experiment size (small: CI-friendly; paper: full streams)",
    ),
    "--spaces": dict(nargs="*", help="only these search spaces (e.g. NLP.c1 CV.c2)"),
    "--seed": dict(
        type=int,
        default=2022,
        help="stream seed; for a config command, the seed when the config sets none",
    ),
    "--csv": dict(metavar="DIR", help="also write the rows as CSV into this directory"),
    "--scores": dict(
        action="store_true",
        help="add the Score column (scaled functional runs; slower)",
    ),
    "--json": dict(
        metavar="PATH",
        type=_output_path,
        help="also write the machine-readable report here",
    ),
    "--seeds": dict(type=int, default=10, help="seeded fault schedules per GPU count"),
    "--out": dict(
        metavar="PATH",
        type=_output_path,
        help="trace: the Chrome trace JSON (default run.trace.json); "
        "monitor: the scrape series as canonical JSONL",
    ),
    "--summary": dict(
        action="store_true", help="also print the bubble-attribution run summary"
    ),
    "--summary-json": dict(
        metavar="PATH",
        type=_output_path,
        help="write the run summary as canonical JSON here",
    ),
    "--sweep-gpus": dict(
        type=int,
        nargs="*",
        help="repeat the analysis at these GPU counts (default: the config's num_gpus)",
    ),
    "--jobs": dict(
        type=int,
        default=1,
        metavar="N",
        help="shard the sweep across N worker processes (N <= 1: in-process); "
        "the output is byte-identical for any N",
    ),
    "--register": dict(
        action="store_true", help="append the run record to the registry"
    ),
    "--registry": dict(
        metavar="PATH", help="registry JSONL path (default .naspipe/runs.jsonl)"
    ),
    "--verify": dict(
        action="store_true",
        help="re-run every job alone and require each digest to match its "
        "shared-fleet run bitwise (overrides the config's verify_solo)",
    ),
    "--rules": dict(
        metavar="PATH",
        help="JSON alert-rule file (default: built-in rules, silent on healthy runs)",
    ),
    "--interval": dict(
        type=float,
        default=100.0,
        metavar="MS",
        help="scrape interval in virtual milliseconds, > 0 (default 100)",
    ),
    "--prom": dict(
        metavar="PATH",
        type=_output_path,
        help="write the final Prometheus text exposition here (byte-deterministic)",
    ),
    "--fail-on-regression": dict(
        type=float,
        metavar="PCT",
        help="exit non-zero when run B's makespan or bubble ratio is worse "
        "than run A's by more than PCT percent (100 = twice as bad)",
    ),
}
#: name → (handler, the _OPTIONS it reads, --help text), in ``naspipe list`` order
_COMMANDS: Dict[str, Tuple[Callable, Tuple[str, ...], str]] = {}
#: the table/figure commands, which ``naspipe all`` runs in this order
_PAPER: List[str] = []


def _command(name: str, *options: str, paper: bool = False) -> Callable:
    """Declare a command: ``options`` are what its handler reads, and the
    handler's docstring is its ``--help``.  ``paper`` marks a table/figure
    regenerator: part of ``all``, wall time reported."""

    def register(produce: Callable) -> Callable:
        handler = produce
        if paper:
            _PAPER.append(name)

            def handler(args) -> str:
                started = time.time()
                text = produce(args)
                return f"{text}\n[{name} in {time.time() - started:.1f}s]\n"

        _COMMANDS[name] = (handler, options, inspect.cleandoc(produce.__doc__))
        return produce

    return register


def _write(path: str, text: str) -> Path:
    out = Path(path)
    out.write_text(text)
    return out


def _indented(payload) -> str:
    """The human-diffable report files: indented, key-sorted JSON."""
    return indented(payload) + "\n"


def _load_json(path: str):
    """A config file's parsed JSON.  A missing, unreadable or malformed
    file is a usage error: one line naming it (and, for bad JSON, where
    it breaks), exit 2, before anything runs."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as error:
        problem = f"{path}: {error.strerror}"
    except json.JSONDecodeError as error:
        problem = f"{path}:{error.lineno}:{error.colno}: {error.msg}"
    print(f"naspipe: error: cannot read config {problem}", file=sys.stderr)
    raise SystemExit(2)


# ----------------------------------------------------------------------
# paper tables and figures: one table drives both the flags and the call
# ----------------------------------------------------------------------
def _scale(args):
    from repro.experiments.common import ExperimentScale

    return getattr(ExperimentScale, args.scale)()


#: ``run()`` keyword → (the option that feeds it, parsed args → the argument)
_RUN_INPUTS = {
    "seed": ("--seed", lambda args: args.seed),
    "scale": ("--scale", _scale),
    "spaces": ("--spaces", lambda args: args.spaces or None),
    "space_names": ("--spaces", lambda args: args.spaces or None),
    "with_scores": ("--scores", lambda args: args.scores),
}


class _Experiment(NamedTuple):
    """One ``repro.experiments`` module (the command's name, ``-`` as
    ``_``) as a command: ``format_text(run(**takes))``."""

    summary: str  # the command's --help
    takes: Tuple[str, ...] = ()  # run() keywords, each fed by its _RUN_INPUTS option
    rows: bool = False  # run() returns a row list, so the command takes --csv


_EXPERIMENTS = {
    "figure1": _Experiment(
        "ASP vs BSP vs CSP on a dependent subnet stream (paper Figure 1)", ("seed",)
    ),
    "figure4": _Experiment(
        "convergence per system and search space (Figure 4)", ("spaces", "seed")
    ),
    "figure5": _Experiment(
        "normalized throughput across systems and spaces (Figure 5)",
        ("scale", "spaces"),
        rows=True,
    ),
    "figure6": _Experiment(
        "ablation throughput (Figure 6)", ("scale", "spaces"), rows=True
    ),
    "figure7": _Experiment(
        "total GPU ALU utilisation vs cluster size (Figure 7)", ("scale",), rows=True
    ),
    "table2": _Experiment(
        "resource consumption and micro events (Table 2)",
        ("scale", "spaces", "with_scores"),
        rows=True,
    ),
    "table3": _Experiment(
        "bitwise reproducibility across cluster sizes (Table 3)", ("spaces", "seed")
    ),
    "table4": _Experiment(
        "access & update order of a shared layer, 4 vs 8 GPUs (Table 4)", ("seed",)
    ),
    "table5": _Experiment(
        "computation vs swap time per representative layer (Table 5)", rows=True
    ),
    "dag-bound": _Experiment(
        "dependency-DAG throughput bound (the contention-free CSP limit)",
        ("space_names",),
        rows=True,
    ),
    "scheduler-cost": _Experiment(
        "CSP scheduler (Algorithm 2) cost per call vs queue size (paper §3.2)",
        ("seed",),
        rows=True,
    ),
    "ranking": _Experiment(
        "subnet ranking fidelity vs sequential training", ("seed",), rows=True
    ),
    "straggler": _Experiment("heterogeneous-GPU straggler study", ("seed",)),
}


def _declare_experiment(name: str, experiment: _Experiment) -> None:
    module_name = name.replace("-", "_")

    def produce(args) -> str:
        module = importlib.import_module(f"repro.experiments.{module_name}")
        result = module.run(
            **{key: _RUN_INPUTS[key][1](args) for key in experiment.takes}
        )
        text = module.format_text(result)
        if experiment.rows and args.csv:
            from repro.experiments.export import write_csv

            directory = Path(args.csv)
            directory.mkdir(parents=True, exist_ok=True)
            path = write_csv(result, directory / f"{module_name}.csv")
            text += f"\n[csv written to {path}]"
        return text

    produce.__doc__ = experiment.summary
    options = [_RUN_INPUTS[key][0] for key in experiment.takes]
    if experiment.rows:
        options.append("--csv")
    _command(name, *options, paper=True)(produce)


for _name, _experiment in _EXPERIMENTS.items():
    _declare_experiment(_name, _experiment)


@_command("repro-check", "--seed", paper=True)
def _repro_check(args) -> str:
    """Quick bitwise-reproducibility self-check (the artifact's core
    experiment): CSP on 1 vs 4 GPUs must match sequential exactly."""
    from repro.replay import execute_manifest, record_run

    lines = ["Reproducibility self-check (CSP vs sequential, 1 vs 4 GPUs)"]
    run = dict(
        space_overrides={"num_blocks": 16, "functional_width": 16},
        seed=args.seed,
        steps=32,
        batch=32,
    )
    manifest = record_run("NLP.c2", "NASPipe", num_gpus=4, **run)
    single = record_run("NLP.c2", "NASPipe", num_gpus=1, **run)
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
    text = "\n".join(lines)
    if "FAIL" in text:
        print(text)
        raise SystemExit("reproducibility self-check failed")
    return text


@_command("demo", "--seed", paper=True)
def _demo(args) -> str:
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
        space, SeedSequenceTree(args.seed), 40
    )
    narration = []

    def listener(event):
        if len(narration) >= 14:
            return
        if event.kind == "task_dispatch" and event.attr("direction") == "fwd":
            kind, stage, time = "fwd-start", event.stage, event.attr("start")
        elif event.kind == "subnet_complete":
            kind, stage, time = "subnet-complete", 0, event.time
        else:
            return
        narration.append(
            f"  t={time:8.1f}ms  {kind:>15s}  SN{event.subnet_id:<3d} @P{stage}"
        )

    engine = PipelineEngine(supernet, stream, naspipe(), ClusterSpec(num_gpus=4))
    engine.trace.listeners.append(listener)
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


# ----------------------------------------------------------------------
# run-config commands
# ----------------------------------------------------------------------
#: the keys every run config shares; a command accepts these plus its own
_TARGET_KEYS = ("space", "space_overrides", "system", "overrides")
#: ``trace`` and ``analyze`` share config files, so ``analyze`` accepts
#: ``label`` too
_RUN_KEYS = (
    *_TARGET_KEYS, "subnets", "num_gpus", "seed", "stream_kind", "batch", "label",
)
_FAULTS_KEYS = (
    *_TARGET_KEYS, "num_gpus", "subnets", "seed", "batch", "faults", "mtbf_ms",
    "checkpoint_interval", "recovery_gpus", "checkpoint_dir",
)
_CHAOS_KEYS = (
    *_TARGET_KEYS, "gpus", "num_gpus", "subnets", "seed", "batch",
    "mtbf_fraction", "stall_ms", "nic_slowdown",
)


def _run_target(config) -> Dict[str, object]:
    """What a run config runs, defaults applied — the four keys every
    run-config command and the registry's config digest share."""
    return {
        "space": config.get("space", "NLP.c3"),
        "space_overrides": config.get("space_overrides") or {},
        "system": config.get("system", "NASPipe"),
        "overrides": config.get("overrides") or {},
    }


def _read_config(config_path, keys, path):
    """Parse a JSON run config that may hold ``keys`` only; returns it
    with its target resolved: ``(config, search space, system config)``.
    ``path`` is what a :class:`~repro.errors.ConfigError` calls it."""
    from repro.baselines import resolve_target

    config = _load_json(config_path)
    reject_unknown(config, keys, path)
    return (config, *resolve_target(**_run_target(config), path=path))


def _integer(config, key, default, minimum=None) -> int:
    """A run config's ``key`` (``default`` when absent), refused unless
    it is an int (not a bool) ``>= minimum``."""
    value = config.get(key, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (minimum is not None and value < minimum)
    ):
        floor = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"run config: {key} must be an integer{floor}, got {value!r}")
    return value


def _load_run_config(config_path, default_seed=2022):
    """Parse a JSON run config and resolve it to run_system kwargs.

    Shared by ``trace`` and ``analyze``: the same config file drives
    both.  Returns ``(config_dict, scale, run_kwargs)``.
    """
    from repro.experiments.common import ExperimentScale

    config, _space, _system = _read_config(config_path, _RUN_KEYS, "run config")
    scale = ExperimentScale(
        subnets=_integer(config, "subnets", 24, minimum=1),
        num_gpus=_integer(config, "num_gpus", 4, minimum=1),
        seed=_integer(config, "seed", default_seed),
        stream_kind=config.get("stream_kind", "generational"),
    )
    target = _run_target(config)
    run_kwargs = dict(
        batch=config.get("batch"),
        space_overrides=target["space_overrides"],
        **target["overrides"],
    )
    return config, scale, run_kwargs


def _run_config(config, scale, run_kwargs):
    from repro.experiments.common import run_system

    target = _run_target(config)
    result = run_system(target["space"], target["system"], scale, **run_kwargs)
    if result is None:
        raise SystemExit(
            f"{target['system']} ran out of memory on "
            f"{target['space']} — no schedule to trace or analyze"
        )
    return result


def _config_identity(config, num_gpus, scale):
    """The registry's config-digest payload for a CLI-config run."""
    return {
        **_run_target(config),
        "num_gpus": num_gpus,
        "subnets": scale.subnets,
        "batch": config.get("batch"),
        "seed": scale.seed,
        "stream_kind": scale.stream_kind,
    }


@_command("trace", "config", "--seed", "--out", "--summary", "--summary-json")
def _trace(args) -> str:
    """``naspipe trace <config>``: run one configured pipeline schedule,
    export it as Chrome Trace Event JSON (Perfetto-loadable) and print
    where to view it; ``--summary`` adds the bubble-attribution report.

    The config is a small JSON object, e.g. ``examples/trace_demo.json``::

        {"space": "NLP.c3", "system": "NASPipe", "num_gpus": 4,
         "subnets": 24, "batch": 32, "seed": 2022}

    ``system`` accepts any :func:`repro.baselines.system_by_name` name;
    extra keys under ``"overrides"`` are forwarded to it (e.g.
    ``{"overrides": {"cache_subnets": 2.0}}``).  ``--summary-json
    PATH`` writes the same summary as canonical machine-readable JSON
    (byte-identical across identical runs — the registry's input).
    """
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
        json_path = _write(args.summary_json, summary_json(summary))
        lines.append(f"[summary JSON written to {json_path}]")
    return "\n".join(lines)


def _analyze_one_gpu_count(task):
    """One GPU count's analysis — module-level so ``--jobs`` can ship it
    to a worker process.  Returns ``(payload_entry, lines, record)``;
    ``record`` is the registry record (or None), appended by the
    *parent* in sweep order so the registry stays deterministic.
    """
    config, scale, run_kwargs, gpus, register = task

    from repro.obs.model import RunModel
    from repro.obs.registry import run_record
    from repro.obs.summary import _readings
    from repro.obs.whatif import _report

    result = _run_config(config, scale, dict(run_kwargs, num_gpus=gpus))
    # one model and one walk serve all three readings
    model = RunModel(result.trace)
    summary, breakdown = _readings(result, model)
    whatif = _report(model)
    entry = {
        "num_gpus": gpus,
        "summary": summary,
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


@_command(
    "analyze", "config", "--seed", "--sweep-gpus", "--jobs", "--json", "--register",
    "--registry",
)
def _analyze(args) -> str:
    """``naspipe analyze <config>``: run one configured schedule, print
    the critical-path breakdown and what-if projections, and optionally
    file the run in the registry.

    Takes the same JSON config as ``naspipe trace`` (plus optional
    ``space_overrides``).  Output, ``--json`` payload (deterministic
    canonical JSON) and registry order are byte-identical for any
    ``--jobs``.  See ``docs/ANALYSIS.md`` for what the numbers mean.
    """
    from repro.obs.registry import append_run
    from repro.parallel import ordered_map

    config_path = Path(args.config)
    config, scale, run_kwargs = _load_run_config(
        config_path, default_seed=args.seed
    )
    gpu_counts = [int(g) for g in (args.sweep_gpus or [scale.num_gpus])]
    tasks = [
        (config, scale, run_kwargs, gpus, args.register)
        for gpus in gpu_counts
    ]
    outcomes = ordered_map(_analyze_one_gpu_count, tasks, args.jobs)

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
        lines.append(f"[analysis written to {_write(args.json, _indented(payload))}]")
    return "\n".join(lines).rstrip()


@_command("compare", "config", "config2", "--registry", "--fail-on-regression")
def _compare(args) -> str:
    """``naspipe compare <run-a> <run-b>``: field-by-field diff of two
    registry records.

    Each reference is a record file (JSON/JSONL, last record wins) or a
    ``run_id`` prefix resolved against ``--registry``.  With
    ``--fail-on-regression PCT`` the command exits non-zero when run B's
    makespan or bubble ratio is worse than run A's by more than PCT
    percent (``100`` = twice as bad).  Output is byte-deterministic.
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


@_command("faults", "config", "--seed", "--json")
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
    import tempfile

    from repro.ft import (
        FaultSchedule,
        RecoverySpec,
        availability_summary,
        format_availability,
        run_uninterrupted,
        run_with_recovery,
    )
    from repro.seeding import SeedSequenceTree

    config, space, system = _read_config(
        Path(args.config), _FAULTS_KEYS, "faults config"
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
        out = _write(args.json, _indented(summary))
        lines.append(f"[availability summary written to {out}]")
    return "\n".join(lines)


@_command("chaos", "config", "--seed", "--seeds", "--jobs", "--json")
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
    from repro.ft import chaos_sweep, format_chaos_report

    config, space, system = _read_config(
        Path(args.config), _CHAOS_KEYS, "chaos config"
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
        batch=config.get("batch"),
        jobs=args.jobs,
    )
    text = format_chaos_report(report)
    if args.json:
        text += f"\n[chaos report written to {_write(args.json, _indented(report))}]"
    if not report["ok"]:
        print(text)
        raise SystemExit(
            f"chaos sweep failed: {len(report['violations'])} invariant "
            "violation(s)"
        )
    return text


@_command("chaos-fleet", "config", "--json")
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
    (byte-identical across identical runs; ``tests/goldens.json`` pins
    the demo's).  See ``docs/FAULT_TOLERANCE.md``.
    """
    from repro.ft import fleet_report_json, fleet_sweep, format_fleet_report

    config_path = Path(args.config)
    payload = _load_json(config_path)
    report = fleet_sweep(payload)
    text = format_fleet_report(report)
    if args.json:
        out = _write(args.json, fleet_report_json(report))
        text += f"\n[fleet chaos report written to {out}]"
    if not report["ok"]:
        print(text)
        raise SystemExit(
            f"fleet chaos sweep failed: {len(report['violations'])} "
            "invariant violation(s)"
        )
    return text


@_command("serve", "config", "--verify", "--json")
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
    (byte-identical across identical runs; ``tests/goldens.json`` pins
    the demo's).  See ``docs/OPERATIONS.md``.
    """
    from repro.service import (
        format_service_report,
        run_service,
        service_report_json,
    )

    config_path = Path(args.config)
    payload = _load_json(config_path)
    report = run_service(
        payload, verify_solo=True if args.verify else None
    )
    text = format_service_report(report)
    if args.json:
        out = _write(args.json, service_report_json(report))
        text += f"\n[service report written to {out}]"
    if not report["ok"]:
        print(text)
        raise SystemExit(
            "per-tenant determinism violated: at least one job's digest "
            "diverged from its solo run"
        )
    return text


@_command("bench-serving", "config", "--json")
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
    (byte-identical across identical runs; ``tests/goldens.json`` pins
    the demo's).  See ``docs/SERVING.md``.
    """
    from repro.serving import format_serving_report, run_bench, serving_report_json

    config_path = Path(args.config)
    payload = run_bench(_load_json(config_path))
    out = [format_serving_report(payload)]
    if args.json:
        target = _write(args.json, serving_report_json(payload))
        out.append(f"[serving bench written to {target}]")
    return "\n".join(out)


@_command("monitor", "config", "--rules", "--interval", "--out", "--prom", "--json")
def _monitor(args) -> str:
    """``naspipe monitor <config>``: run a plane with the live telemetry
    hub armed — deterministic metrics scraping on the virtual clock,
    alert-rule evaluation at scrape points, per-tenant usage metering —
    and print a scrape-by-scrape tail plus the final alert and metering
    reports.

    The config is a **service** config (has ``"jobs"``, e.g.
    ``examples/serve_demo.json``) or a **serving** config (has
    ``"space"``, e.g. ``examples/serving_demo.json``); ``--rules``
    replaces the built-in alert rules (see ``docs/TELEMETRY.md``) and
    ``--json`` writes the monitor report (alerts + metering).

    Every output is byte-identical across identical runs —
    ``tests/goldens.json`` pins the three files of the service demo —
    and arming the hub changes nothing: engine decisions, digests and
    reports are bitwise the same with telemetry on or off.
    """
    from repro.obs.telemetry import TelemetryHub

    config_path = Path(args.config)
    payload = _load_json(config_path)
    interval = args.interval
    hub = TelemetryHub(scrape_interval_ms=interval, rules=args.rules)

    if "jobs" in payload:
        from repro.service import run_service

        run_service(payload, telemetry=hub)
    else:
        from repro.serving.frontend import ServingEngine, ServingSpec

        ServingEngine(ServingSpec.from_payload(payload), telemetry=hub).run()

    alerts = hub.alert_report()
    metering = hub.metering_report()
    lines = [
        f"monitor: {len(hub.scraper.samples)} scrape(s) every "
        f"{interval:g} virtual ms ({config_path.name})",
        "",
    ]
    lines.extend(hub.scraper.tail_lines())
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
        series_path = _write(args.out, hub.scraper.series_jsonl())
        lines.append(f"\n[scrape series written to {series_path}]")
    if args.prom:
        prom_path = _write(args.prom, hub.scraper.prometheus_text())
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
        lines.append(f"[monitor report written to {_write(args.json, _indented(report))}]")
    return "\n".join(lines)


_LISTED = tuple(_COMMANDS)  # ``all`` and ``list`` are about the commands above


@_command("all", "--scale", "--spaces", "--seed", "--csv", "--scores")
def _all(args) -> str:
    """Every paper table and figure, in ``naspipe list`` order."""
    return "\n".join(_COMMANDS[name][0](args) for name in _PAPER)


@_command("list")
def _list(args) -> str:
    """Print every command's name except ``all`` and ``list``."""
    return "\n".join(_LISTED)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="naspipe",
        description="NASPipe reproduction — regenerate paper tables/figures "
        "and run the tools around them (naspipe <command> --help)",
    )
    commands = parser.add_subparsers(dest="command", metavar="command", required=True)
    for name, (handler, options, doc) in _COMMANDS.items():
        sub = commands.add_parser(
            name,
            help=" ".join(doc.split("\n\n")[0].split()),
            description=doc,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        for option in options:
            sub.add_argument(option, **_OPTIONS[option])
        sub.set_defaults(handler=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    print(args.handler(args))
    return 0
