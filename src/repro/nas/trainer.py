"""High-level API: train a supernet under a chosen system, then search.

:class:`SupernetTrainer` is the facade examples and experiments use — it
wires the seed tree, sampler, functional plane, cluster, engine and search
together so a complete "train + search + score" run is a few lines:

    trainer = SupernetTrainer("NLP.c2", seed=2022, num_gpus=8)
    run = trainer.train(naspipe(), steps=200)
    outcome = trainer.search(run)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SystemConfig
from repro.engines.functional_plane import FunctionalPlane
from repro.engines.pipeline import PipelineEngine, PipelineResult
from repro.nas.evaluator import SubnetEvaluator
from repro.nas.evolution import EvolutionSearch, SearchOutcome
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import STREAM_KINDS, SubnetStream
from repro.supernet.search_space import SearchSpace, get_search_space
from repro.supernet.supernet import Supernet

__all__ = ["TrainingRun", "SupernetTrainer"]


@dataclass
class TrainingRun:
    """A trained supernet plus the pipeline run that produced it."""

    system: SystemConfig
    plane: FunctionalPlane
    result: PipelineResult

    @property
    def digest(self) -> Optional[str]:
        return self.result.digest

    @property
    def final_loss(self) -> Optional[float]:
        if not self.result.losses:
            return None
        return self.result.losses[max(self.result.losses)]

    def mean_tail_loss(self, tail: int = 10) -> Optional[float]:
        """Mean loss over the last ``tail`` subnets (noise-robust)."""
        if not self.result.losses:
            return None
        ids = sorted(self.result.losses)[-tail:]
        return sum(self.result.losses[i] for i in ids) / len(ids)

    def analysis(self):
        """Post-training usage report (see :mod:`repro.nas.analysis`)."""
        from repro.nas.analysis import training_report

        return training_report(
            self.plane.store, self.plane.space.num_blocks
        )

    def save(self, params_path, optimizer_path=None) -> None:
        """Checkpoint the trained supernet (weights + optimizer state)."""
        self.plane.save_checkpoint(params_path, optimizer_path)


class SupernetTrainer:
    """Facade over the whole stack for one search space."""

    def __init__(
        self,
        space: "SearchSpace | str",
        seed: int = 2022,
        num_gpus: int = 8,
        functional_batch: int = 8,
        stream_kind: str = "spos",
        generation: int = 8,
        learning_rate: float = 0.3,
        momentum: float = 0.9,
        max_grad_norm: float = 5.0,
    ) -> None:
        self.space = get_search_space(space) if isinstance(space, str) else space
        self.seed = seed
        self.num_gpus = num_gpus
        self.functional_batch = functional_batch
        if stream_kind not in STREAM_KINDS:
            raise ValueError(f"unknown stream kind {stream_kind!r}")
        self.stream_kind = stream_kind
        self.generation = generation
        # Momentum at a brisk learning rate makes update-order effects
        # (BSP's staleness, ASP's inconsistency) visible in final loss,
        # as the paper's Table 3 shows at production scale.
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.max_grad_norm = max_grad_norm
        self.supernet = Supernet(self.space)

    # ------------------------------------------------------------------
    def _seeds(self) -> SeedSequenceTree:
        return SeedSequenceTree(self.seed)

    def make_stream(self, steps: int) -> SubnetStream:
        """The subnet stream for a run — a pure function of the seed, so
        every system trains the *same* ordered workload."""
        return SubnetStream.sample_kind(
            self.stream_kind, self.space, self._seeds(), steps, self.generation
        )

    def make_plane(
        self, record_accesses: bool = True, recompute: bool = False
    ) -> FunctionalPlane:
        from repro.nn.optim import MomentumSGD

        return FunctionalPlane(
            self.supernet,
            self._seeds(),
            functional_batch=self.functional_batch,
            optimizer=MomentumSGD(
                self.learning_rate, self.momentum, self.max_grad_norm
            ),
            recompute=recompute,
            record_accesses=record_accesses,
        )

    # ------------------------------------------------------------------
    def train(
        self,
        system: SystemConfig,
        steps: int = 100,
        batch: Optional[int] = None,
        with_functional: bool = True,
        num_gpus: Optional[int] = None,
    ) -> TrainingRun:
        """Train ``steps`` subnets under ``system`` on the simulated
        cluster; raises GpuOutOfMemoryError when the system cannot fit."""
        stream = self.make_stream(steps)
        # Honour the system's activation-recomputation setting in the
        # functional plane too (bit-identical either way — the test suite
        # proves it — but intent should match the timing model).
        plane = (
            self.make_plane(recompute=system.recompute)
            if with_functional
            else None
        )
        engine = PipelineEngine(
            self.supernet,
            stream,
            system,
            ClusterSpec(num_gpus=self.num_gpus if num_gpus is None else num_gpus),
            batch=batch,
            functional=plane,
        )
        result = engine.run()
        assert plane is None or result.digest is not None
        return TrainingRun(system=system, plane=plane, result=result)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def search(
        self,
        run: TrainingRun,
        evaluations: int = 40,
        population_size: int = 12,
    ) -> SearchOutcome:
        """Evolutionary search over the trained supernet's weights."""
        evaluator = SubnetEvaluator(run.plane)
        search = EvolutionSearch(
            self.space,
            evaluator,
            self._seeds(),
            population_size=population_size,
        )
        return search.run(evaluations)
