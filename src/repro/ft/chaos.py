"""Randomized robustness sweeps ("chaos testing") for degraded-mode runs.

A chaos scenario draws a seeded schedule of **non-fatal** faults
(``nic_degrade``, ``copy_stall``, ``task_error``) over a run's horizon,
executes the run with the degradation manager active, and checks it
against the unfaulted CSP baseline with :func:`chaos_invariants`:
timing perturbations, admission changes, prefetch throttling and
repartitioning must not change a single bit.

Everything is seeded and driven by the virtual clock, so a failing
scenario is a *repro case*, not a flake: re-running the same
``(seed, fault_seed, gpus)`` triple replays it exactly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.context_manager import stage_cache_bytes
from repro.errors import ConfigError, DeadlockError
from repro.ft.faults import (
    COPY_STALL,
    NIC_DEGRADE,
    TASK_ERROR,
    FaultSchedule,
)
from repro.ft.injector import FaultInjector
from repro.ft.recovery import run_uninterrupted
from repro.invariants import (
    attribution_sums,
    cache_within_cap,
    completed,
    diverged,
    same_training,
    trace_valid,
)
from repro.parallel import ordered_map
from repro.seeding import SeedSequenceTree
from repro.supernet.search_space import SearchSpace
from repro.supernet.supernet import Supernet

__all__ = [
    "NONFATAL_KINDS",
    "BaselineSummary",
    "chaos_invariants",
    "run_chaos_scenario",
    "sweep",
    "chaos_sweep",
    "format_chaos_report",
]

#: the degraded-mode fault kinds a chaos sweep draws from
NONFATAL_KINDS = (NIC_DEGRADE, COPY_STALL, TASK_ERROR)


def _cache_capacity(
    space: SearchSpace, config: SystemConfig, num_gpus: int
) -> Optional[int]:
    """The per-stage cache capacity the engine would build (bytes), or
    None for full-context systems."""
    if config.context != "cached":
        return None
    return stage_cache_bytes(Supernet(space), config.cache_subnets, num_gpus)


def chaos_invariants(
    result, baseline, *, steps: int, capacity_bytes: Optional[int] = None
) -> List[str]:
    """The chaos suite of :mod:`repro.invariants` checks; ``[]`` = it holds."""
    return [
        *completed(result, steps),
        *same_training(baseline, result),
        *trace_valid(result.trace),
        *attribution_sums(result.trace),
        *cache_within_cap(result, baseline, capacity_bytes),
    ]


class BaselineSummary(NamedTuple):
    """The slice of an unfaulted run the invariant suite actually reads.

    The full run result drags the trace and engine state along — too
    heavy (and unnecessary) to ship to worker processes.  Every
    ``baseline`` consumer in this module reads only these four fields,
    so the sharded sweep sends this summary over the process boundary
    and the serial sweep's reports stay byte-identical.
    """

    digest: str
    losses: Dict[int, float]
    makespan_ms: float
    peak_cache_bytes: Optional[int]


def run_chaos_scenario(
    space: SearchSpace,
    config: SystemConfig,
    *,
    baseline,
    num_gpus: int,
    steps: int,
    seed: int,
    fault_seed: int,
    mtbf_fraction: float = 0.1,
    stall_ms: float = 20.0,
    nic_slowdown: float = 4.0,
    batch: Optional[int] = None,
    stream_name: str = "chaos",
) -> Dict[str, object]:
    """One seeded scenario: draw non-fatal faults over the baseline's
    horizon, run with mitigation, check every invariant.

    ``mtbf_fraction`` scales the fault rate to the run: the mean time
    between faults is that fraction of the unfaulted makespan, so a
    sweep stays equally hostile across GPU counts and spaces.
    """
    mtbf_ms = max(1.0, baseline.makespan_ms * mtbf_fraction)
    schedule = FaultSchedule.from_mtbf(
        SeedSequenceTree(fault_seed),
        mtbf_ms=mtbf_ms,
        horizon_ms=baseline.makespan_ms,
        num_gpus=num_gpus,
        kinds=NONFATAL_KINDS,
        nic_slowdown=nic_slowdown,
        stall_ms=stall_ms,
        stream_name=stream_name,
    )
    scenario: Dict[str, object] = {
        "fault_seed": fault_seed,
        "num_gpus": num_gpus,
        "faults": len(schedule),
        "fault_kinds": schedule.kind_counts(),
    }
    try:
        result = run_uninterrupted(
            space,
            config,
            num_gpus=num_gpus,
            steps=steps,
            seed=seed,
            batch=batch,
            faults=FaultInjector(schedule),
            degradation=True,
        )
    except DeadlockError as exc:
        scenario.update(
            completed=0,
            digest_ok=False,
            mitigations=0,
            task_retries=0,
            makespan_ms=0.0,
            violations=[f"deadlock: {exc}"],
        )
        return scenario
    violations = chaos_invariants(
        result,
        baseline,
        steps=steps,
        capacity_bytes=_cache_capacity(space, config, num_gpus),
    )
    scenario.update(
        completed=result.subnets_completed,
        digest_ok=not diverged(violations, "digest"),
        mitigations=len(result.mitigation_actions),
        task_retries=result.task_retries,
        makespan_ms=result.makespan_ms,
        violations=violations,
    )
    return scenario


def _apply(task):
    """One sweep task — ``(function, keyword arguments)`` — in a worker."""
    function, kwargs = task
    return function(**kwargs)


def sweep(
    sizes: Sequence[int],
    scenarios: int,
    seed: int,
    *,
    baseline: Callable,
    baseline_args: Callable[[int], Dict],
    scenario: Callable,
    scenario_args: Callable[[int, int, int, object], Dict],
    tags: Tuple[str, str],
    jobs: int,
) -> Tuple[Dict[int, object], Dict[str, object]]:
    """The sweep every chaos harness is a configuration of: one
    fault-free baseline per cluster size, then ``scenarios`` seeded fault
    scenarios against each, every row's violations gathered under a
    ``[<size tag>=… <seed tag>=…]`` prefix.

    ``baseline`` and ``scenario`` are module-level (picklable)
    functions; ``baseline_args(size)`` and ``scenario_args(size, index,
    scenario_seed, baselines[size])`` build, in the parent, the keyword
    arguments of one call.  A scenario returns a JSON-stable row with a
    ``"violations"`` list.  Returns the baselines by size and the report
    keys both sweeps share; ``report["ok"]`` is the single gate a CI job
    needs.

    Both phases go through :func:`~repro.parallel.ordered_map` in
    ``(size, index)`` order, so ``jobs > 1`` shards the sweep over a
    process pool and the report is **byte-identical** to a ``jobs=1``
    run (every run is virtual-clock deterministic; only wall-clock
    completion order varies, and the map ignores it).  Scenario
    ``index`` draws the same seed at every size.
    """
    if scenarios < 1 or not sizes:
        # a sweep that ran nothing would report ok
        raise ConfigError(
            f"a sweep needs scenarios >= 1 and a non-empty {tags[0]} list, "
            f"got scenarios={scenarios}, {tags[0]}={list(sizes)}"
        )
    baselines = dict(
        zip(
            sizes,
            ordered_map(_apply, [(baseline, baseline_args(n)) for n in sizes], jobs),
        )
    )
    draws = [(n, i, seed * 100_003 + i) for n in sizes for i in range(scenarios)]
    rows = ordered_map(
        _apply,
        [(scenario, scenario_args(n, i, drawn, baselines[n])) for n, i, drawn in draws],
        jobs,
    )
    violations = [
        f"[{tags[0]}={n} {tags[1]}={drawn}] {violation}"
        for (n, _i, drawn), row in zip(draws, rows)
        for violation in row["violations"]
    ]
    return baselines, {
        "total_scenarios": len(rows),
        "scenarios": rows,
        "violations": violations,
        "ok": not violations,
    }


def _baseline_summary(**run) -> BaselineSummary:
    result = run_uninterrupted(**run)
    return BaselineSummary(
        digest=result.digest,
        losses=result.losses,
        makespan_ms=result.makespan_ms,
        peak_cache_bytes=result.peak_cache_bytes,
    )


def chaos_sweep(
    space: SearchSpace,
    config: SystemConfig,
    *,
    scenarios: int,
    gpus: Sequence[int] = (2, 4, 8),
    steps: int,
    seed: int,
    mtbf_fraction: float = 0.1,
    stall_ms: float = 20.0,
    nic_slowdown: float = 4.0,
    batch: Optional[int] = None,
    jobs: int = 1,
) -> Dict[str, object]:
    """``scenarios`` seeded fault schedules × every GPU count, each run
    against that GPU count's unfaulted baseline — :func:`sweep` over
    :func:`run_chaos_scenario`.  Rows come in ``(gpus, index)`` order.
    """
    if steps < 1:
        # every run would train nothing, and every comparison would hold
        raise ConfigError(f"a chaos sweep needs steps >= 1, got {steps}")
    run = dict(
        space=space,
        config=config,
        steps=steps,
        seed=seed,
        batch=batch,
    )
    _baselines, report = sweep(
        gpus,
        scenarios,
        seed,
        baseline=_baseline_summary,
        baseline_args=lambda num_gpus: dict(run, num_gpus=num_gpus),
        scenario=run_chaos_scenario,
        scenario_args=lambda num_gpus, index, fault_seed, baseline: dict(
            run,
            baseline=baseline,
            num_gpus=num_gpus,
            fault_seed=fault_seed,
            mtbf_fraction=mtbf_fraction,
            stall_ms=stall_ms,
            nic_slowdown=nic_slowdown,
            stream_name=f"chaos/{num_gpus}gpu/{index}",
        ),
        tags=("gpus", "fault_seed"),
        jobs=jobs,
    )
    rows = report["scenarios"]
    return {
        "schema": 1,
        "system": config.name,
        "space": space.name,
        "steps": steps,
        "seed": seed,
        "scenarios_per_gpu": scenarios,
        "gpus": list(gpus),
        "total_faults": sum(row["faults"] for row in rows),
        "total_mitigations": sum(row["mitigations"] for row in rows),
        **report,
    }


def format_chaos_report(report: Dict[str, object]) -> str:
    """Stable human-readable rendering of a :func:`chaos_sweep` report."""
    lines = [
        "chaos sweep — {system} on {space}, {steps} subnets, seed {seed}".format(
            **report
        ),
        f"  {report['scenarios_per_gpu']} scenarios x GPUs {report['gpus']}"
        f" = {report['total_scenarios']} runs, "
        f"{report['total_faults']} faults injected, "
        f"{report['total_mitigations']} mitigations applied",
        "  gpus  fault_seed  faults  completed  digest  mitig  makespan_ms",
    ]
    for row in report["scenarios"]:
        digest = "OK" if row["digest_ok"] else "DIVERGED"
        lines.append(
            f"  {row['num_gpus']:<5d} {row['fault_seed']:<11d} "
            f"{row['faults']:<7d} {row['completed']:<10d} {digest:<7s} "
            f"{row['mitigations']:<6d} {row['makespan_ms']:.1f}"
        )
    if report["violations"]:
        lines.append(f"  VIOLATIONS ({len(report['violations'])}):")
        for violation in report["violations"]:
            lines.append(f"    {violation}")
    else:
        lines.append(
            "  PASS: all scenarios completed with digests bitwise-identical "
            "to the unfaulted baseline; zero invariant violations"
        )
    return "\n".join(lines)
