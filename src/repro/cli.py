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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import ConfigError, ReproducibilityError
from repro.payload import at_least, build, checked, indented, positive

__all__ = ["main", "run", "build_parser"]


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


def _verdict(held: bool, text: str, failure: str) -> str:
    """A verdict command's output: ``text`` if the run ``held``, else
    ``text`` printed and exit 1 with ``failure`` — so CI can gate on it."""
    if not held:
        print(text)
        raise SystemExit(failure)
    return text


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
    from repro.invariants import same_training
    from repro.replay import record_run, verify_replay

    lines = ["Reproducibility self-check (CSP vs sequential, 1 vs 4 GPUs)"]
    run = dict(
        space_overrides={"num_blocks": 16, "functional_width": 16},
        seed=args.seed,
        steps=32,
        batch=32,
    )
    manifest = record_run("NLP.c2", "NASPipe", num_gpus=4, **run)
    single = record_run("NLP.c2", "NASPipe", num_gpus=1, **run)
    failures = same_training(single, manifest)
    lines += [f"FAIL: {failure}" for failure in failures] or [
        f"PASS: digests match ({manifest.digest[:16]}…)"
    ]
    try:
        verify_replay(manifest)
        lines.append("PASS: replay reproduced the 4-GPU run bitwise")
    except ReproducibilityError as error:
        failures.append(str(error))
        lines.append(f"FAIL: {error}")
    return _verdict(not failures, "\n".join(lines), "reproducibility self-check failed")


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
@dataclass(frozen=True)
class RunConfig:
    """The keys the ``trace``/``analyze``, ``faults`` and ``chaos``
    configs share: what a run trains, on how many GPUs, for how long."""

    PATH = "run config"  # what a ConfigError calls the config

    space: str = "NLP.c3"
    space_overrides: Optional[Mapping] = None
    system: str = "NASPipe"
    #: system-config fields, forwarded to the system
    overrides: Optional[Mapping] = None
    num_gpus: int = at_least(1, default=4)
    subnets: int = at_least(1, default=24)
    seed: int = 2022
    batch: Optional[int] = None

    @classmethod
    def read(cls, args):
        """The config file ``args.config`` as a ``cls`` and its target
        resolved: ``(config, search space, system config)``.  ``--seed``
        is the seed of a config that sets none."""
        from repro.baselines import resolve_target
        from repro.config import SystemConfig
        from repro.supernet.search_space import SearchSpace

        config = _load_json(args.config)
        if isinstance(config, dict):
            config = {"seed": args.seed, **config}
            # the override objects are read first, as the resolver reads
            # them, so one that is no object is named as an object of its
            # own (``run config.overrides must be an object, got str``)
            for key, fields in (("space_overrides", SearchSpace), ("overrides", SystemConfig)):
                checked(fields, config.get(key) or {}, f"{cls.PATH}.{key}")
        run = build(cls, config, cls.PATH)
        target = (run.space, run.space_overrides, run.system, run.overrides)
        return (run, *resolve_target(*target, path=cls.PATH))


@dataclass(frozen=True)
class TraceConfig(RunConfig):
    """A ``trace`` or ``analyze`` config: one file drives both."""

    stream_kind: str = "generational"
    #: the trace's label (default: the config file's stem)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.supernet.sampler import check_stream_kind

        check_stream_kind(self.stream_kind)

    def identity(self, num_gpus: int) -> Dict[str, object]:
        """The registry's config-digest payload of the run on ``num_gpus``."""
        identity = {**vars(self), "space_overrides": self.space_overrides or {},
                    "overrides": self.overrides or {}, "num_gpus": num_gpus}
        del identity["label"]
        return identity


def _run_config(run: TraceConfig, num_gpus: int):
    from repro.experiments.common import ExperimentScale, run_system

    scale = ExperimentScale(run.subnets, run.num_gpus, run.seed, run.stream_kind)
    result = run_system(
        run.space,
        run.system,
        scale,
        num_gpus=num_gpus,
        batch=run.batch,
        space_overrides=run.space_overrides,
        **(run.overrides or {}),
    )
    if result is None:
        raise SystemExit(
            f"{run.system} ran out of memory on "
            f"{run.space} — no schedule to trace or analyze"
        )
    return result


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

    run, _space, _system = TraceConfig.read(args)
    result = _run_config(run, run.num_gpus)
    out = Path(args.out or "run.trace.json")
    label = Path(args.config).stem if run.label is None else run.label
    result.trace_export(path=out, label=label)
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
    run, gpus, register = task

    from repro.obs.model import RunModel
    from repro.obs.registry import run_record
    from repro.obs.summary import _readings
    from repro.obs.whatif import _report

    result = _run_config(run, gpus)
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
        record = run_record(result, identity=run.identity(gpus))
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

    run, _space, _system = TraceConfig.read(args)
    gpu_counts = args.sweep_gpus or [run.num_gpus]
    tasks = [(run, gpus, args.register) for gpus in gpu_counts]
    outcomes = ordered_map(_analyze_one_gpu_count, tasks, args.jobs)

    lines = []
    payload = {"schema": 1, "config": str(Path(args.config)), "runs": []}
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
        _verdict(
            not failures, text, "regression vs baseline:\n  " + "\n  ".join(failures)
        )
        text += (
            f"\n[no regression beyond {args.fail_on_regression:g}% threshold]"
        )
    return text


@dataclass(frozen=True)
class FaultsConfig(RunConfig):
    """A ``faults`` config: a run, its faults and how it recovers."""

    PATH = "faults config"

    #: the fault events; without them a schedule is drawn at ``mtbf_ms``
    faults: Optional[list] = None
    #: the drawn schedule's MTBF (default: half the baseline's makespan)
    mtbf_ms: Optional[float] = positive(default=None)
    #: subnets between checkpoints (``None``: the manifest's default)
    checkpoint_interval: Optional[int] = at_least(1, default=None)
    #: the GPU count a restart runs on (``None``: the same)
    recovery_gpus: Optional[int] = at_least(1, default=None)
    checkpoint_dir: Optional[str] = None


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
    digest still matches the fault-free run bitwise, and the command
    exits 1 when it does not.  ``--json PATH`` also writes the
    machine-readable availability summary.
    """
    from repro.ft import FaultSchedule, availability_summary, format_availability
    from repro.replay import RunManifest, execute_manifest
    from repro.seeding import SeedSequenceTree

    run, _space, _system = FaultsConfig.read(args)
    manifest = RunManifest(
        run.space,
        run.system,
        space_overrides=run.space_overrides or {},
        system_overrides=run.overrides or {},
        num_gpus=run.num_gpus,
        steps=run.subnets,
        seed=run.seed,
        batch=run.batch,
        checkpoint_interval=run.checkpoint_interval,
        recovery_gpus=run.recovery_gpus,
    )
    schedule = None if run.faults is None else FaultSchedule.from_payload(run.faults)

    baseline = execute_manifest(manifest)
    if schedule is None:
        schedule = FaultSchedule.from_mtbf(
            SeedSequenceTree(manifest.seed),
            mtbf_ms=baseline.makespan_ms / 2 if run.mtbf_ms is None else run.mtbf_ms,
            horizon_ms=baseline.makespan_ms,
            num_gpus=manifest.num_gpus,
        )
    manifest.fault_events = schedule.to_payload()
    faulted = execute_manifest(manifest, run.checkpoint_dir or None)

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
    return _verdict(
        summary["digest_matches_baseline"],
        "\n".join(lines),
        "fault recovery diverged from the fault-free run",
    )


@dataclass(frozen=True)
class ChaosConfig(RunConfig):
    """A ``chaos`` config: a run, the GPU counts to sweep and the faults
    the sweep draws."""

    PATH = "chaos config"

    subnets: int = at_least(1, default=12)
    #: the GPU counts to sweep (default: ``[num_gpus]``)
    gpus: Optional[List[int]] = at_least(1, default=None)
    mtbf_fraction: float = positive(default=0.1)
    stall_ms: float = positive(default=20.0)
    nic_slowdown: float = positive(default=4.0)


@_command("chaos", "config", "--seed", "--seeds", "--jobs", "--json")
def _chaos(args) -> str:
    """``naspipe chaos <config>``: seeded randomized robustness sweep.

    Draws ``--seeds`` non-fatal fault schedules per GPU count, runs each
    with the degradation manager armed and checks it against the
    unfaulted baseline (docs/FAULT_TOLERANCE.md § Invariants).  Exits 1
    on any violation, so the sweep is CI-gateable (``make chaos-smoke``).

    The config is a small JSON object, e.g. ``examples/chaos_demo.json``::

        {"space": "NLP.c3", "space_overrides": {"num_blocks": 8},
         "system": "NASPipe", "gpus": [2, 4], "subnets": 12,
         "seed": 2022, "mtbf_fraction": 0.1}

    ``--json PATH`` also writes the machine-readable sweep report.
    """
    from repro.ft import chaos_sweep, format_chaos_report

    run, space, system = ChaosConfig.read(args)
    report = chaos_sweep(
        space,
        system,
        scenarios=args.seeds,
        gpus=run.gpus or [run.num_gpus],
        steps=run.subnets,
        seed=run.seed,
        mtbf_fraction=run.mtbf_fraction,
        stall_ms=run.stall_ms,
        nic_slowdown=run.nic_slowdown,
        batch=run.batch,
        jobs=args.jobs,
    )
    text = format_chaos_report(report)
    if args.json:
        text += f"\n[chaos report written to {_write(args.json, _indented(report))}]"
    return _verdict(
        report["ok"],
        text,
        f"chaos sweep failed: {len(report['violations'])} invariant violation(s)",
    )


@_command("chaos-fleet", "config", "--json")
def _chaos_fleet(args) -> str:
    """``naspipe chaos-fleet <config>``: fleet-scale preemption storms.

    Runs a multi-tenant mix (elastic CSP + rigid + serving) on shared
    fleets while seeded preemption storms (``slot_preempt`` /
    ``node_down``) revoke leases mid-run, then checks every tenant
    against its fault-free solo run and the fleet for leaks and lost
    requests (docs/FAULT_TOLERANCE.md § Invariants).  Exits 1 on any
    violation, so the sweep is CI-gateable (``make chaos-fleet``).

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
    return _verdict(
        report["ok"],
        text,
        f"fleet chaos sweep failed: {len(report['violations'])} "
        "invariant violation(s)",
    )


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
    return _verdict(
        report["ok"],
        text,
        "per-tenant determinism violated: at least one job's digest "
        "diverged from its solo run",
    )


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
    reports are bitwise the same with telemetry on or off.  Exits 1 when
    the metering does not reconcile with the lease ledger.
    """
    from repro.invariants import metering_reconciled
    from repro.obs.telemetry import TelemetryHub
    from repro.obs.telemetry.alerts import rule_objects

    config_path = Path(args.config)
    payload = _load_json(config_path)
    interval = args.interval
    # the file's content is rules, never a path or "use the defaults"
    rules = rule_objects(_load_json(args.rules)) if args.rules else None
    hub = TelemetryHub(scrape_interval_ms=interval, rules=rules)

    if isinstance(payload, dict) and "jobs" in payload:
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
    return _verdict(
        not metering_reconciled(metering.get("reconciliation")),
        "\n".join(lines),
        "metering does not reconcile with the lease ledger",
    )


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


def run(argv: Optional[List[str]] = None) -> int:
    """The ``naspipe`` program: :func:`main`, a bad config value (a
    ``ConfigError``) a usage error like a bad flag — one line, exit 2."""
    try:
        return main(argv)
    except ConfigError as error:
        print(f"naspipe: error: {error}", file=sys.stderr)
        return 2
