"""Straggler mitigation benchmark (graceful degradation, `repro.ft`).

One GPU in the cluster runs slow (a thermally-throttled or
oversubscribed device — the classic persistent straggler).  Without
mitigation every pipeline round is paced by the slow stage.  With the
degradation manager armed, the health monitor's speed-ratio EWMA
classifies the stage as a straggler and the manager gives it a cost
weight: the next subnet's balanced partition shifts layer boundaries
away from the slow device, and the off-home layers materialise through
the mirror registry exactly as for any replicated assignment.

The benchmark reports makespan with mitigation off vs on, the recorded
mitigation actions, the mirror replica counts the rebalance produced —
and that both runs finish with the *same digest*: under CSP the
partition shape changes timing only (Definition 1/2), so chasing
stragglers is free of any reproducibility cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines import system_by_name
from repro.engines.functional_plane import FunctionalPlane
from repro.engines.pipeline import PipelineEngine
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

__all__ = ["StragglerRow", "run", "format_text"]


@dataclass
class StragglerRow:
    """One (slowdown, mitigation) cell of the benchmark."""

    slow_stage: int
    slowdown: float
    mitigated: bool
    makespan_ms: float
    digest: Optional[str]
    mitigation_actions: List[Dict[str, object]] = field(default_factory=list)
    #: off-home replica count per stage after the run (mirror registry)
    replica_counts: Dict[int, int] = field(default_factory=dict)


def _run_once(
    space,
    system,
    *,
    num_gpus: int,
    steps: int,
    seed: int,
    speed_factors: Tuple[float, ...],
    mitigated: bool,
) -> Tuple[object, Optional[Dict[int, int]]]:
    supernet = Supernet(space)
    seeds = SeedSequenceTree(seed)
    plane = FunctionalPlane(supernet, seeds)
    stream = SubnetStream.sample(space, seeds, steps)
    engine = PipelineEngine(
        supernet,
        stream,
        system,
        ClusterSpec(num_gpus=num_gpus, gpu_speed_factors=speed_factors),
        functional=plane,
        degradation=mitigated,
    )
    result = engine.run()
    replicas = (
        engine.mirror_registry.stage_replica_counts()
        if engine.mirror_registry is not None
        else None
    )
    return result, replicas


def run(
    seed: int = 2022,
    *,
    space_name: str = "NLP.c3",
    num_gpus: int = 4,
    steps: int = 48,
    slow_stage: int = 1,
    slowdowns: Tuple[float, ...] = (1.8, 2.5),
) -> List[StragglerRow]:
    # 16 blocks over 4 stages: enough cut granularity for the weighted
    # partition to shift meaningful load off the slow stage (at 8 blocks
    # the one-block quantum over/under-shoots and the gain washes out)
    space = get_search_space(space_name).scaled(
        num_blocks=16, functional_width=16
    )
    system = system_by_name("NASPipe")
    rows: List[StragglerRow] = []
    for slowdown in slowdowns:
        speeds = tuple(
            slowdown if stage == slow_stage else 1.0
            for stage in range(num_gpus)
        )
        for mitigated in (False, True):
            result, replicas = _run_once(
                space,
                system,
                num_gpus=num_gpus,
                steps=steps,
                seed=seed,
                speed_factors=speeds,
                mitigated=mitigated,
            )
            rows.append(
                StragglerRow(
                    slow_stage=slow_stage,
                    slowdown=slowdown,
                    mitigated=mitigated,
                    makespan_ms=result.makespan_ms,
                    digest=result.digest,
                    mitigation_actions=list(result.mitigation_actions),
                    replica_counts=dict(replicas or {}),
                )
            )
    return rows


def format_text(rows: List[StragglerRow]) -> str:
    lines = [
        "Straggler mitigation — one slow GPU, rebalance via weighted "
        "partition (NASPipe, 4 GPUs)",
        "",
        "  slowdown  mitigation  makespan_ms  speedup  actions  digest",
    ]
    by_slowdown: Dict[float, Dict[bool, StragglerRow]] = {}
    for row in rows:
        by_slowdown.setdefault(row.slowdown, {})[row.mitigated] = row
    for slowdown, pair in sorted(by_slowdown.items()):
        off, on = pair.get(False), pair.get(True)
        for row in (off, on):
            if row is None:
                continue
            speedup = (
                f"{off.makespan_ms / row.makespan_ms:7.3f}x"
                if off is not None and row.makespan_ms
                else "      --"
            )
            digests_match = (
                off is not None
                and on is not None
                and off.digest == on.digest
            )
            lines.append(
                f"  {slowdown:8.2f}  {'on ' if row.mitigated else 'off':>10s}"
                f"  {row.makespan_ms:11.1f}  {speedup}  "
                f"{len(row.mitigation_actions):7d}  "
                f"{'match' if digests_match else row.digest[:12]}"
            )
        if on is not None and on.replica_counts:
            lines.append(
                f"            mirror replicas by stage: "
                f"{on.replica_counts}"
            )
    mitigated_better = all(
        pair[True].makespan_ms <= pair[False].makespan_ms
        for pair in by_slowdown.values()
        if False in pair and True in pair
    )
    digests_ok = all(
        pair[True].digest == pair[False].digest
        for pair in by_slowdown.values()
        if False in pair and True in pair
    )
    lines.append("")
    lines.append(
        f"  mitigation lowers makespan: {'yes' if mitigated_better else 'NO'}"
        f"; digests invariant under mitigation: "
        f"{'yes' if digests_ok else 'NO'}"
    )
    return "\n".join(lines)
