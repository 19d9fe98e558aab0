"""The programs the workloads run, and where the traced run puts spans.

A program is built from generated ``inputs`` only (``build``), then
``iterate()`` runs it once — that call is what the harness times — and
``observe(outcome)`` reduces the outcome to a flat dict of figures that
must repeat exactly: virtual-clock results, counts and content hashes.
Keys that are per-layer metric names (``engines.v_bubble_ratio`` …) are
reported as such; the rest (``check.*``) exist to be pinned in
``golden.json``.

Every ``repro`` import happens inside ``build`` so that the child
process's set-up time includes it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence

from spans import Label, Recorder
from workloads import canonical

__all__ = ["CheckError", "build", "install_spans"]

_SERVING_SCENARIOS = ("primary", "no_cache", "overload")


class CheckError(Exception):
    """An output of the program under test is wrong."""


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------
class _Program:
    #: input-defined work units one iteration completes
    work: float = 1.0
    #: host-time figures taken once during set-up (per-layer metric
    #: names); a program that has some assigns its own dict
    setup_metrics: Dict[str, float] = {}
    #: span label(s) for ``ServingEngine.run`` while this program runs
    serving_run_labels: Label = "serving.primary_s|ServingEngine.run"

    def iterate(self):
        raise NotImplementedError

    def observe(self, outcome) -> Dict:
        raise NotImplementedError


def _pipeline_engine(spec: Dict):
    from repro import (
        ClusterSpec,
        PipelineEngine,
        SeedSequenceTree,
        SubnetStream,
        Supernet,
        get_search_space,
        system_by_name,
    )

    space = get_search_space(spec["space"])
    return PipelineEngine(
        Supernet(space),
        SubnetStream.sample(space, SeedSequenceTree(spec["seed"]), spec["subnets"]),
        system_by_name(spec["system"]),
        ClusterSpec(num_gpus=spec["num_gpus"]),
        batch=spec["batch"],
    )


class PipelineProgram(_Program):
    """One full ``PipelineEngine(...).run()`` on the timing plane,
    rebuilt from the search space up every iteration (a stream is
    consumed by the run that reads it)."""

    def __init__(self, inputs: Dict, workdir: Path) -> None:
        self.spec = inputs["pipeline"]
        self.work = float(self.spec["subnets"])
        if "historic" in inputs:
            self._rerun_historic_point(inputs["historic"])
        self.first_engine = _pipeline_engine(self.spec)

    def _rerun_historic_point(self, point: Dict) -> None:
        engine = _pipeline_engine(point)
        begun = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - begun
        got = {
            "makespan_ms": result.makespan_ms,
            "events": engine.sim.events_processed,
            "trace_events": len(result.trace.events),
        }
        if got != point["expect"]:
            raise CheckError(
                f"historic point moved: expected {point['expect']}, got {got}"
            )
        self.setup_metrics = {"sim.hist_events_per_s": got["events"] / elapsed}

    def iterate(self):
        engine = _pipeline_engine(self.spec)
        return engine, engine.run()

    def observe(self, outcome) -> Dict:
        engine, result = outcome
        if result.subnets_completed != self.spec["subnets"]:
            raise CheckError(
                f"{result.subnets_completed} of {self.spec['subnets']} subnets completed"
            )
        return {
            "v_makespan_ms": result.makespan_ms,
            "engines.v_bubble_ratio": result.bubble_ratio,
            "check.cache_hit_rate": result.cache_hit_rate,
            "check.sched_ready_pops": result.scheduler_ready_pops,
            "check.subnets_completed": result.subnets_completed,
        }


class ReadbackProgram(_Program):
    """Every offline reader over one recorded trace."""

    def __init__(self, inputs: Dict, workdir: Path) -> None:
        engine = _pipeline_engine(inputs["pipeline"])
        self.result = engine.run()
        self.work = float(len(self.result.trace.events))
        self._validated = False

    def iterate(self):
        from repro import obs

        result = self.result
        return (
            obs.run_summary(result),
            obs.critical_path_breakdown(result.trace),
            obs.what_if_report(result.trace),
            obs.export_chrome_trace(
                result.trace,
                label=f"{result.system}/{result.space}",
                system=result.system,
                space=result.space,
                batch=result.batch,
            ),
            result.telemetry(),
        )

    def observe(self, outcome) -> Dict:
        from repro import obs

        summary, critical, what_if, export, hub = outcome
        makespan = self.result.makespan_ms
        tiled = sum(critical["by_resource_ms"].values())
        if abs(tiled - makespan) > 1e-9:
            raise CheckError(
                f"critical-path classes sum to {tiled!r}, makespan is {makespan!r}"
            )
        if not self._validated:
            # all iterations must export the same bytes (checked by hash
            # below), so validating the first export validates them all
            problems = obs.validate_chrome_trace(json.loads(export))
            if problems:
                raise CheckError(f"chrome trace invalid: {problems[:3]}")
            self._validated = True
        return {
            "v_makespan_ms": makespan,
            "obs.export_bytes": len(export.encode()),
            "check.export_sha256": _sha256(export),
            "check.summary_sha256": _sha256(canonical(summary)),
            "check.critical_path_sha256": _sha256(canonical(critical)),
            "check.what_if_sha256": _sha256(canonical(what_if)),
            "check.telemetry_sha256": _sha256(canonical(hub.registry.snapshot())),
        }


class ServingProgram(_Program):
    """``run_bench``: primary, no-cache and overload scenarios."""

    serving_run_labels = [
        f"serving.{scenario}_s|ServingEngine.run" for scenario in _SERVING_SCENARIOS
    ]

    def __init__(self, inputs: Dict, workdir: Path) -> None:
        from repro.serving.frontend import ServingEngine, ServingSpec

        self.payload = inputs["payload"]
        self.work = float(len(_SERVING_SCENARIOS) * self.payload["requests"])
        self.first_plane = ServingEngine(ServingSpec.from_payload(self.payload))

    def iterate(self):
        from repro.serving import frontend

        return frontend.run_bench(self.payload)

    def observe(self, outcome) -> Dict:
        primary, overload = outcome["primary"], outcome["overload"]
        if primary["shed"]:
            raise CheckError(f"primary scenario shed {primary['shed']} requests")
        for scenario in _SERVING_SCENARIOS:
            row = outcome[scenario]
            if row["completed"] + row["shed"] != row["requests"]:
                raise CheckError(f"{scenario}: requests lost: {row}")
        return {
            "v_makespan_ms": primary["makespan_ms"],
            "serving.requests": sum(outcome[s]["requests"] for s in _SERVING_SCENARIOS),
            "serving.batches": sum(outcome[s]["batches"] for s in _SERVING_SCENARIOS),
            "serving.v_p99_ms": primary["latency_ms"]["p99"],
            "serving.v_shed_rate": overload["shed_rate"],
            "serving.v_layer_hit_rate": primary["layer_hit_rate"],
            "check.report_sha256": _sha256(canonical(outcome)),
        }


class FleetProgram(_Program):
    """``fleet_sweep``: storms over co-tenant training and serving."""

    def __init__(self, inputs: Dict, workdir: Path) -> None:
        from repro import ClusterSpec
        from repro.service.manager import ClusterManager
        from repro.serving.frontend import ServingEngine, ServingSpec

        self.payload = inputs["payload"]
        self.work = float(self.payload["scenarios"] * len(self.payload["fleet_slots"]))
        fleet = self.payload["fleet_slots"][0]
        self.first_plane = ServingEngine(
            ServingSpec.from_payload({**self.payload["serving"], "total_gpus": fleet}),
            manager=ClusterManager(ClusterSpec(num_gpus=fleet)),
            slots_per_node=self.payload["slots_per_node"],
        )

    def iterate(self):
        from repro.ft import fleet

        return fleet.fleet_sweep(self.payload)

    def observe(self, outcome) -> Dict:
        from repro.ft.fleet import fleet_report_json

        if not outcome["ok"]:
            raise CheckError(f"fleet invariants violated: {outcome['violations'][:3]}")
        jobs = [job for row in outcome["scenarios"] for job in row["jobs"]]
        diverged = [job["name"] for job in jobs if job["status"] == "done" and not job["digest_ok"]]
        if diverged:
            raise CheckError(f"training digests differ from solo: {diverged}")
        return {
            "v_makespan_ms": max(outcome["horizons_ms"].values()),
            "ft.scenarios": outcome["total_scenarios"],
            "ft.revocations": outcome["total_revocations"],
            "ft.storm_events": outcome["total_storm_events"],
            "ft.violations": len(outcome["violations"]),
            "service.segments": sum(job["segments"] for job in jobs),
            "service.resizes": sum(job["resizes"] for job in jobs),
            "check.report_sha256": _sha256(fleet_report_json(outcome)),
        }


def _invoke(argv: Sequence[str], cwd: Path, env: Dict[str, str]):
    """One command-line invocation, waited for."""
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=120)


class CliProgram(_Program):
    """A fresh ``python -m repro trace <config> --out <file> --summary``."""

    _EXPORT = "cli_cold.trace.json"

    def __init__(self, inputs: Dict, workdir: Path) -> None:
        self.workdir = workdir
        config = inputs["config"]
        (workdir / "config.json").write_text(canonical(config) + "\n")
        # relative paths with a fixed cwd: the command echoes --out on
        # stdout, and stdout is hashed
        self.argv = [
            sys.executable, "-m", "repro", "trace", "config.json",
            "--out", self._EXPORT, "--summary",
        ]

    def iterate(self):
        export = self.workdir / self._EXPORT
        if export.exists():
            export.unlink()
        # the module-level name, so the traced run sees this call
        return _invoke(self.argv, self.workdir, dict(os.environ))

    def observe(self, outcome) -> Dict:
        if outcome.returncode != 0:
            raise CheckError(
                f"exit code {outcome.returncode}: {outcome.stderr.decode()[-400:]}"
            )
        printed = re.search(rb"makespan\s+([0-9.]+) ms", outcome.stdout)
        if printed is None:
            raise CheckError(f"no makespan in the summary: {outcome.stdout[:400]!r}")
        return {
            # as the command prints it (0.1 ms); the hashes pin the rest
            "v_makespan_ms": float(printed.group(1)),
            "check.stdout_sha256": _sha256(outcome.stdout),
            "check.export_sha256": _sha256((self.workdir / self._EXPORT).read_bytes()),
        }


_PROGRAMS = {
    "pipeline": PipelineProgram,
    "readback": ReadbackProgram,
    "serving": ServingProgram,
    "fleet": FleetProgram,
    "cli": CliProgram,
}


def build(inputs: Dict, workdir: Path) -> _Program:
    """Set-up: import ``repro`` and construct the program's objects."""
    import repro  # noqa: F401  (the import is part of set-up time)

    return _PROGRAMS[inputs["program"]](inputs, workdir)


# ----------------------------------------------------------------------
# span placement: label = "<per-layer metric>|<entry point>"
# ----------------------------------------------------------------------
def _after_plane_run(plane, result, counts: Counter) -> None:
    """Counts every plane exposes once its ``run()`` returns."""
    trace = plane.trace
    counts["sim.events"] += plane.sim.events_processed
    counts["trace.events"] += len(trace.events)
    kinds = trace.event_counts()
    counts["core.ctx_fetches"] += kinds.get("prefetch_issue", 0)
    counts["core.ctx_evictions"] += kinds.get("eviction", 0)
    counts["ctx.hits"] += trace.cache_hits
    counts["ctx.misses"] += trace.cache_misses


def _after_engine_run(engine, result, counts: Counter) -> None:
    _after_plane_run(engine, result, counts)
    counts["core.sched_ready_pops"] += result.scheduler_ready_pops
    counts["engines.tasks"] += sum(
        1 for interval in result.trace.intervals if interval.kind != "stall"
    )


def _public_methods(owner: type) -> List[str]:
    return [
        attr
        for attr, value in vars(owner).items()
        if not attr.startswith("_") and callable(value)
    ]


def _subclasses(owner: type) -> List[type]:
    found = []
    for sub in owner.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install_spans(recorder: Recorder, program: _Program) -> None:
    """Wrap the public entry points of every layer (ISSUE 11's table)."""
    from repro import obs
    from repro.core.context_manager import StageContextManager
    from repro.core.dependency import DependencyTracker
    from repro.core.predictor import ContextPredictor
    from repro.core.scheduler import CspScheduler
    from repro.engines.functional_plane import FunctionalPlane
    from repro.engines.pipeline import PipelineEngine, PipelineResult
    from repro.engines.policies.base import SyncPolicy
    from repro.ft import fleet
    from repro.partition.balanced import balanced_partition, weighted_balanced_partition
    from repro.service.manager import ClusterManager
    from repro.service.scheduler import JobScheduler
    from repro.serving import frontend
    from repro.sim.clock import EventQueue, ScheduledEvent
    from repro.sim.trace import ExecutionTrace
    from repro.supernet.sampler import SubnetStream
    from repro.supernet.supernet import Supernet

    def methods(owner: type, metric: str, attrs, after=None) -> None:
        for attr in attrs:
            recorder.patch_method(owner, attr, f"{metric}|{owner.__name__}.{attr}", after)

    def function(fn, metric: str) -> None:
        recorder.patch_function(fn, f"{metric}|{fn.__name__}", prefixes=("repro", __name__))

    methods(EventQueue, "sim.queue_busy_s", ("schedule", "schedule_after", "pop_until"))
    methods(ScheduledEvent, "sim.queue_busy_s", ("cancel",))
    methods(
        ExecutionTrace, "trace.emit_busy_s",
        ("record_event", "append_event", "record_interval", "record_cache_access"),
    )
    methods(CspScheduler, "core.sched_busy_s", ("schedule",))
    methods(
        DependencyTracker, "core.dep_busy_s",
        ("register", "release_layers", "mark_finished", "index_add", "index_discard", "first_ready"),
    )
    methods(ContextPredictor, "core.predict_busy_s", ("predict_on_forward", "predict_on_backward"))
    methods(
        StageContextManager, "core.ctx_busy_s",
        ("prefetch", "acquire_for_task", "release_after_task", "evict_subnet"),
    )
    for policy in _subclasses(SyncPolicy):
        if "select_forward" in vars(policy):
            methods(policy, "engines.select_busy_s", ("select_forward",))
    methods(PipelineEngine, "engines.ctor_s", ("__init__",))
    methods(PipelineEngine, "engines.dispatch_self_s", ("run",), _after_engine_run)
    function(balanced_partition, "partition.busy_s")
    function(weighted_balanced_partition, "partition.busy_s")
    plane_methods = [attr for attr in _public_methods(FunctionalPlane) if attr != "digest"]
    methods(FunctionalPlane, "nn.functional_busy_s", plane_methods)
    methods(FunctionalPlane, "nn.digest_s", ("digest",))
    methods(Supernet, "supernet.build_s", ("__init__",))
    methods(SubnetStream, "supernet.stream_build_s", ("sample",))

    function(frontend.run_bench, "serving.bench_self_s")
    methods(frontend.ServingEngine, "serving.bench_self_s", ("__init__",))
    recorder.patch_method(
        frontend.ServingEngine, "run", program.serving_run_labels, _after_plane_run
    )
    methods(frontend.ServingResult, "serving.report_s", ("scenario_report",))
    methods(JobScheduler, "service.run_self_s", ("run",), _after_plane_run)
    methods(ClusterManager, "service.manager_busy_s", ("acquire", "release", "revoke"))
    function(fleet.fleet_sweep, "ft.sweep_overhead_s")
    function(fleet.run_fleet_scenario, "ft.scenario_self_s")

    function(obs.run_summary, "obs.summary_s")
    function(obs.critical_path_breakdown, "obs.critical_path_s")
    function(obs.what_if_report, "obs.whatif_s")
    function(obs.export_chrome_trace, "obs.export_s")
    methods(PipelineResult, "obs.telemetry_s", ("telemetry",))
    function(_invoke, "cli.invoke_s")
