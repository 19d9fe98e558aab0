"""One workload, measured in this process; run by ``ledger/run.py`` only.

    python ledger/child.py --workload NAME --seed N --mode setup|check|run|trace
                           --seconds S --workdir DIR --out FILE [--spans-out FILE]

``setup`` stops once the program is built (the harness takes set-up time
from several such processes); ``check`` adds one iteration and reports
what it observed; ``run`` treats that iteration as the untimed warm-up
and then times iterations until ``--seconds`` of iteration time have been
measured; ``trace`` spends a third of the time the same way, then wraps
the layers' entry points (``ledger/spans.py``) and spends the rest on
traced iterations.  The result is written to ``--out`` as JSON.

Noise protocol: one thread, ``gc.collect()`` between (never inside)
iterations with the collector left enabled, nothing else started; the
reference kernel and the hypervisor's steal counter are read around every
iteration (``ledger/machine.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import machine  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 3
ROOT_LABEL = "ledger.harness_self_s|iteration"


def _cpu_seconds() -> float:
    """CPU used by this process and the children it has waited for."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    waited = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, waited) / 1024.0  # Linux reports KiB


class Loop:
    """Timed iterations of one program, each checked against the first."""

    def __init__(self, program) -> None:
        self.program = program
        self.reference: Optional[Dict] = None
        self.failures: List[str] = []
        self.attempted = 0

    def once(self, recorder=None) -> float:
        """One checked iteration; returns its host seconds."""
        gc.collect()
        self.attempted += 1
        begun = time.perf_counter()
        try:
            if recorder is None:
                outcome = self.program.iterate()
            else:
                with recorder.root(ROOT_LABEL):
                    outcome = self.program.iterate()
            elapsed = time.perf_counter() - begun
            observed = self.program.observe(outcome)
        except Exception:  # boundary: a failed iteration is a counted result
            self.failures.append(traceback.format_exc(limit=6))
            return time.perf_counter() - begun
        del outcome
        if self.reference is None:
            self.reference = observed
        why = stats.first_difference(self.reference, observed)
        if why:
            self.failures.append(f"two iterations of one seed differ — {why}")
        return elapsed

    def measure(self, seconds: float, recorder=None, after_each=None) -> Dict[str, List[float]]:
        """Iterate until ``seconds`` of iteration time have been measured.

        Per iteration: ``wall_s`` as timed, ``stolen_s`` withheld by the
        hypervisor meanwhile, and ``speed`` — how much slower than
        nominal the reference kernel ran just before and after.
        """
        walls: List[float] = []
        stolen: List[float] = []
        speeds: List[float] = []
        reference = machine.reference_seconds()
        while len(walls) < MIN_ITERATIONS or sum(walls) < seconds:
            lost = machine.stolen_seconds()
            walls.append(self.once(recorder))
            stolen.append(machine.stolen_seconds() - lost)
            before, reference = reference, machine.reference_seconds()
            speeds.append(machine.speed(before, reference))
            if after_each is not None:
                after_each()
        return {"wall_s": walls, "stolen_s": stolen, "speed": speeds}


def _layer_metrics(recorder, cost, walls, per_iteration_counts, reference_p50) -> Dict[str, float]:
    """Per-layer figures of the traced iterations (medians over them)."""
    from spans import self_times

    metric_of = [label.split("|")[0] for label in recorder.labels]
    self_samples: Dict[str, List[float]] = defaultdict(list)
    removed, attributed = [], []
    scenario_durations: List[float] = []
    calls: Dict[str, int] = {}
    for (lo, hi), wall in zip(recorder.iteration_slices(), walls):
        name, parent, start, end = recorder.columns(lo, hi)
        figures = self_times(name, parent, start, end, len(recorder.labels), cost)
        by_metric: Dict[str, float] = defaultdict(float)
        by_calls: Dict[str, int] = defaultdict(int)
        for label_id, metric in enumerate(metric_of):
            by_metric[metric] += float(figures.self_s[label_id])
            by_calls[metric] += int(figures.calls[label_id])
            if recorder.labels[label_id].endswith("|run_fleet_scenario"):
                scenario_durations.extend(figures.durations[figures.name == label_id].tolist())
        for metric, value in by_metric.items():
            self_samples[metric].append(value)
        removed.append(figures.removed_s)
        attributed.append((sum(by_metric.values()) + figures.removed_s) / wall)
        calls = calls or dict(by_calls)
    layers = {metric: stats.median(values) for metric, values in self_samples.items()}
    layers["ledger.span_cost_s"] = stats.median(removed)
    layers["ledger.attributed_share"] = stats.median(attributed)
    layers["ft.scenario_s_p50"] = stats.median(scenario_durations) if scenario_durations else 0.0

    counts = per_iteration_counts[0]
    events = counts["sim.events"]
    tasks = counts["engines.tasks"]
    sched_calls = calls.get("core.sched_busy_s", 0)
    lookups = counts["ctx.hits"] + counts["ctx.misses"]
    layers.update(
        {
            "sim.events": events,
            "sim.events_per_s": events / reference_p50,
            "trace.events": counts["trace.events"],
            "trace.events_per_sim_event": counts["trace.events"] / events if events else 0.0,
            "core.sched_calls": sched_calls,
            "core.sched_ready_pops": counts["core.sched_ready_pops"],
            "core.sched_useful_ratio": counts["core.sched_ready_pops"] / sched_calls if sched_calls else 0.0,
            "core.predict_calls": calls.get("core.predict_busy_s", 0),
            "core.ctx_fetches": counts["core.ctx_fetches"],
            "core.ctx_evictions": counts["core.ctx_evictions"],
            "core.ctx_hit_rate": counts["ctx.hits"] / lookups if lookups else 0.0,
            "engines.tasks": tasks,
            "engines.select_calls": calls.get("engines.select_busy_s", 0),
            "engines.polls_per_task": calls.get("engines.select_busy_s", 0) / tasks if tasks else 0.0,
            "partition.calls": calls.get("partition.busy_s", 0),
        }
    )
    return layers


def _trace(loop: Loop, program, seconds: float, spans_out: Optional[Path], reference_p50: float) -> Dict:
    from programs import install_spans
    from spans import Recorder, calibrate

    cost = calibrate()
    recorder = Recorder()
    per_iteration_counts: List[Counter] = []

    def snapshot() -> None:
        per_iteration_counts.append(Counter(recorder.counts))
        recorder.counts.clear()

    install_spans(recorder, program)
    try:
        walls = loop.measure(seconds, recorder, after_each=snapshot)["wall_s"]
    finally:
        recorder.remove()
    if any(counts != per_iteration_counts[0] for counts in per_iteration_counts):
        loop.failures.append("traced iterations of one seed counted different work")
    layers = _layer_metrics(recorder, cost, walls, per_iteration_counts, reference_p50)
    layers["ledger.traced_iter_s"] = stats.median(walls)
    layers["ledger.trace_overhead_pct"] = (stats.median(walls) / reference_p50 - 1.0) * 100.0
    if spans_out is not None:
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        recorder.write(spans_out)
    return {"layers": layers, "spans": len(recorder.name), "span_cost_s": list(cost)}


def run(args) -> Dict:
    from programs import build

    workdir = Path(args.workdir)
    inputs = workloads.generate(args.workload, args.seed)
    report: Dict = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    try:
        program = build(inputs, workdir)
    except Exception:  # boundary: set-up failure is reported, not raised
        report["setup_done"] = time.monotonic()
        report["error"] = traceback.format_exc(limit=8)
        return report
    report["setup_done"] = time.monotonic()
    if args.mode == "setup":
        return report

    loop = Loop(program)
    loop.once()  # warm-up: caches fill, lazy imports finish; not a sample
    if args.mode == "check":
        report.update(
            observed=loop.reference, attempted=1, failed=len(loop.failures),
            failures=loop.failures,
        )
        return report

    untimed = args.seconds / 3.0 if args.mode == "trace" else args.seconds
    cpu_begun, wall_begun = _cpu_seconds(), time.perf_counter()
    samples = loop.measure(untimed)
    cpu_share = (_cpu_seconds() - cpu_begun) / (time.perf_counter() - wall_begun)
    report.update(
        work=program.work,
        samples=samples,
        cpu_share=cpu_share,
        peak_rss_mb=_peak_rss_mb(),
        setup_metrics=program.setup_metrics,
    )
    if args.mode == "trace":
        spans_out = Path(args.spans_out) if args.spans_out else None
        report["traced"] = _trace(
            loop, program, args.seconds - untimed, spans_out, stats.median(samples["wall_s"])
        )
    report.update(
        observed=loop.reference,
        attempted=loop.attempted,  # the warm-up is checked like any other
        failed=min(len(loop.failures), loop.attempted),
        failures=loop.failures[:5],
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "check", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    report = run(args)
    Path(args.out).write_text(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
