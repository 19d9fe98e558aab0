"""Table 2: resource consumption and micro events per (space, system).

Columns mirror the paper: parameter footprint ("P.S."), supported batch,
normalized GPU memory and ALU use, CPU (pinned) memory, per-subnet
execution time (bubble-eliminated), bubble ratio, cache hit rate.
The quality score column is produced by :mod:`repro.experiments.table3`'s
functional runs (scores belong with the reproducibility experiment here,
since timing-only runs do not train weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.baselines import ALL_SYSTEMS, system_by_name
from repro.experiments.common import ExperimentScale, run_system
from repro.memory_model import memory_breakdown
from repro.sim.cluster import ClusterSpec
from repro.supernet.search_space import get_search_space, list_search_spaces
from repro.supernet.supernet import Supernet

__all__ = ["ResourceRow", "run", "format_text"]

_GB = 1_000_000_000


@dataclass
class ResourceRow:
    space: str
    system: str
    param_count: int  # resident parameter footprint (subnet-multiple or supernet)
    score: Optional[float]  # proxy quality from a scaled functional run
    batch: Optional[int]
    gpu_mem_x: Optional[float]  # total GPU memory, normalized to one GPU's 11 GB
    gpu_alu_x: Optional[float]
    cpu_mem_gb: float  # pinned CPU storage for swapped systems
    exec_ms: Optional[float]
    bubble: Optional[float]
    cache_hit: Optional[float]
    oom: bool


def _param_footprint(supernet: Supernet, system: str) -> int:
    config = system_by_name(system)
    if config.context == "full":
        return supernet.total_param_count()
    return int(supernet.expected_subnet_param_count() * config.cache_subnets)


def _cpu_pinned_gb(supernet: Supernet, system: str) -> float:
    config = system_by_name(system)
    if config.context == "full":
        return 0.0
    return supernet.total_param_bytes() / _GB


def _proxy_score(space_name: str, system: str, scale: ExperimentScale) -> float:
    """The Table 2 "Score" column: quality of a converged supernet.

    Full-width functional training is numpy-bound, so the score comes
    from a scaled variant of the space (same protocol as Table 3) — it
    measures the sync pattern's quality effect, not absolute BLEU.
    """
    from repro.baselines import system_by_name as by_name
    from repro.nas.trainer import SupernetTrainer

    space = get_search_space(space_name).scaled(
        num_blocks=16, functional_width=16
    )
    trainer = SupernetTrainer(space, seed=scale.seed, num_gpus=scale.num_gpus)
    training = trainer.train(by_name(system), steps=32, batch=32)
    outcome = trainer.search(training, evaluations=12, population_size=6)
    return outcome.best_score


def run(
    scale: Optional[ExperimentScale] = None,
    spaces: Optional[List[str]] = None,
    with_scores: bool = False,
) -> List[ResourceRow]:
    scale = scale or ExperimentScale.small()
    cluster = ClusterSpec(num_gpus=scale.num_gpus)
    rows: List[ResourceRow] = []
    for space_name in spaces or list_search_spaces():
        supernet = Supernet(get_search_space(space_name))
        for system in ALL_SYSTEMS:
            result = run_system(space_name, system, scale)
            config = system_by_name(system)
            score = (
                _proxy_score(space_name, system, scale)
                if with_scores and result is not None
                else None
            )
            if result is None:
                rows.append(
                    ResourceRow(
                        space=space_name,
                        system=system,
                        param_count=_param_footprint(supernet, system),
                        score=None,
                        batch=None,
                        gpu_mem_x=None,
                        gpu_alu_x=None,
                        cpu_mem_gb=_cpu_pinned_gb(supernet, system),
                        exec_ms=None,
                        bubble=None,
                        cache_hit=None,
                        oom=True,
                    )
                )
                continue
            breakdown = memory_breakdown(supernet, config, cluster, result.batch)
            per_gpu_used = min(breakdown.total, breakdown.usable_bytes)
            gpu_mem_x = (
                (per_gpu_used + cluster.reserved_bytes)
                * cluster.num_gpus
                / cluster.gpu_memory_bytes
            )
            rows.append(
                ResourceRow(
                    space=space_name,
                    system=system,
                    param_count=_param_footprint(supernet, system),
                    score=score,
                    batch=result.batch,
                    gpu_mem_x=gpu_mem_x,
                    gpu_alu_x=result.total_alu,
                    cpu_mem_gb=_cpu_pinned_gb(supernet, system),
                    exec_ms=result.mean_exec_ms,
                    bubble=result.bubble_ratio,
                    cache_hit=result.cache_hit_rate,
                    oom=False,
                )
            )
    return rows


def _fmt_params(count: int) -> str:
    if count >= 1_000_000_000:
        return f"{count / 1e9:.1f}B"
    return f"{count / 1e6:.0f}M"


def format_text(rows: List[ResourceRow]) -> str:
    lines = [
        "Table 2 — resource consumption and micro events",
        "",
        f"{'space':>7s} {'system':>10s} {'Para.':>7s} {'Score':>6s} "
        f"{'Batch':>6s} {'GPU Mem':>8s} {'GPU ALU':>8s} {'CPU Mem':>8s} "
        f"{'Exec(s)':>8s} {'Bub.':>5s} {'Cache Hit':>10s}",
    ]
    for row in rows:
        score = f"{row.score:.2f}" if row.score is not None else "-"
        if row.oom:
            lines.append(
                f"{row.space:>7s} {row.system:>10s} "
                f"{_fmt_params(row.param_count):>7s} {score:>6s} {'OOM':>6s}"
            )
            continue
        hit = f"{row.cache_hit * 100:.1f}%" if row.cache_hit is not None else "N/A"
        lines.append(
            f"{row.space:>7s} {row.system:>10s} {_fmt_params(row.param_count):>7s} "
            f"{score:>6s} {row.batch:>6d} {row.gpu_mem_x:>7.1f}x "
            f"{row.gpu_alu_x:>7.1f}x {row.cpu_mem_gb:>7.1f}G "
            f"{row.exec_ms / 1000:>8.2f} {row.bubble:>5.2f} {hit:>10s}"
        )
    return "\n".join(lines)
