"""Shared plumbing for experiment runners."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines import resolve_target
from repro.engines.pipeline import PipelineEngine, PipelineResult
from repro.errors import GpuOutOfMemoryError
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

__all__ = ["ExperimentScale", "run_system", "make_stream"]


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run an experiment.

    ``paper()`` matches the paper's defaults (8 GPUs, long streams);
    ``small()`` is the CI/benchmark size.  Performance experiments use
    evolution-shaped ("generational") streams, matching the paper's
    default search strategy; reproducibility experiments use raw SPOS.
    """

    subnets: int = 250
    num_gpus: int = 8
    seed: int = 2022
    stream_kind: str = "generational"

    @classmethod
    def small(cls) -> "ExperimentScale":
        return cls(subnets=96, num_gpus=8)

    @classmethod
    def paper(cls) -> "ExperimentScale":
        return cls(subnets=600, num_gpus=8)


def make_stream(
    space_name: str,
    scale: ExperimentScale,
    salt: str = "",
    space=None,
) -> SubnetStream:
    """Seeded subnet stream for one (space, scale) cell; pass ``space``
    to sample from an already-resolved (e.g. scaled) search space."""
    if space is None:
        space = get_search_space(space_name)
    seeds = SeedSequenceTree(scale.seed).child(salt) if salt else SeedSequenceTree(
        scale.seed
    )
    return SubnetStream.sample_kind(
        scale.stream_kind, space, seeds, scale.subnets
    )


def run_system(
    space_name: str,
    system_name: str,
    scale: ExperimentScale,
    num_gpus: Optional[int] = None,
    with_functional: bool = False,
    batch: Optional[int] = None,
    space_overrides: Optional[dict] = None,
    **system_overrides,
) -> Optional[PipelineResult]:
    """Run one (system, space) cell; returns None when the system OOMs
    (the paper's "failed to run" cells for GPipe/PipeDream on NLP.c0).
    ``space_overrides`` scales the search space before sampling (the
    same knob the faults/chaos configs expose)."""
    space, config = resolve_target(
        space_name, space_overrides, system_name, system_overrides
    )
    supernet = Supernet(space)
    stream = make_stream(
        space_name, scale, salt=f"{space_name}/{system_name}", space=space
    )
    plane = None
    if with_functional:
        from repro.engines.functional_plane import FunctionalPlane

        plane = FunctionalPlane(supernet, SeedSequenceTree(scale.seed))
    try:
        engine = PipelineEngine(
            supernet,
            stream,
            config,
            ClusterSpec(
                num_gpus=scale.num_gpus if num_gpus is None else num_gpus
            ),
            batch=batch,
            functional=plane,
        )
    except GpuOutOfMemoryError:
        return None
    return engine.run()
