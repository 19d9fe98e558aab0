"""Crash-restart and elastic-rescale recovery.

:func:`run_with_recovery` drives one logical training run to completion
across any number of fail-stop faults.  Each *attempt* is a fresh
:class:`~repro.engines.pipeline.PipelineEngine` on its own local virtual
clock: a fresh supernet, functional plane and per-stage runtime state
(the paper's ``L_q`` / ``L_f`` / ``L_SN`` lists rebuild naturally from
re-injection), with

* the parameter store, optimizer velocity and cached RNG streams
  restored from the latest consistent checkpoint
  (:class:`~repro.ft.checkpoint.CheckpointManager`);
* the subnet stream resumed at the checkpoint's cut **with original
  sequence IDs** — data batches and causal order are keyed by ID, so the
  resumed prefix replays bitwise;
* the fault schedule re-bound at a global-clock ``offset`` so faults
  fire exactly once across the whole history;
* optionally a **different GPU count** (elastic rescale): under CSP the
  final weights are a pure function of the stream, so recovering on 4 or
  8 GPUs produces the same bits — the strongest production consequence
  of Definition 1, and the thing the recovery tests check.

Recovered stages also re-warm their prefetch caches: before the first
task dispatches, each stage prefetches its slice of the first resumed
subnet, charging the copies to the recovery window instead of a cold
fetch stall on the critical path.

Non-fatal faults never reach this module: NIC degradation is a
degraded-mode *continue* and transient task errors are retried with
backoff inside the engine (see :mod:`repro.ft.injector`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.config import SystemConfig
from repro.engines.functional_plane import FUNCTIONAL_BATCH, STREAM_KIND, default_optimizer
from repro.engines.functional_plane import FunctionalPlane, SeededInputs
from repro.engines.pipeline import PipelineEngine, PipelineResult
from repro.errors import ConfigError, FaultToleranceError
from repro.ft.checkpoint import Checkpoint, CheckpointManager
from repro.ft.faults import FaultSchedule
from repro.ft.injector import FaultInjector
from repro.nn.optim import MomentumSGD
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import SearchSpace
from repro.supernet.supernet import Supernet

__all__ = [
    "RecoverySpec",
    "AttemptRecord",
    "FaultedRunResult",
    "JobMemo",
    "run_with_recovery",
    "run_uninterrupted",
    "build_stream",
    "fresh_plane",
    "rewarm_prefetch",
]

#: give up after this many restarts (a restart budget, not attempts)
MAX_RESTARTS = 8
#: virtual downtime charged per restart (detection + respawn + load)
RESTART_DELAY_MS = 50.0


@dataclass(frozen=True)
class RecoverySpec:
    """Restart policy knobs."""

    #: take a consistent checkpoint every this many subnets
    checkpoint_interval: int = 8
    #: GPU count for restarted attempts (None = same as the original);
    #: elastic rescale when it differs
    restart_gpus: Optional[int] = None


@dataclass
class AttemptRecord:
    """What one engine incarnation did."""

    attempt: int
    num_gpus: int
    resumed_from: int  # stream cursor this attempt started at
    interrupted: bool
    interrupt_kind: str
    makespan_ms: float  # local virtual time this attempt ran
    checkpoints: List[int] = field(default_factory=list)
    completed_kept: int = 0  # completions that survive into the merge
    lost_virtual_ms: float = 0.0
    recovery_latency_ms: float = 0.0


def _total(values) -> float:
    """Left-to-right float sum — the order the totals were always
    accumulated in (``sum`` compensates on Python >= 3.12 and could move
    the last bit of a recorded figure)."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass
class FaultedRunResult:
    """The merged outcome of a crash-restart history.

    Stands in for :class:`PipelineResult` where replay verification
    reads ``digest`` / ``losses`` / ``completion_order`` /
    ``makespan_ms`` / ``num_attempts``.  Only what cannot be derived is
    stored; every total is read off ``attempts`` / ``results`` (one
    entry each per engine incarnation, in order).
    """

    system: str
    space: str
    num_gpus: int
    digest: Optional[str]
    makespan_ms: float  # global virtual time, downtime included
    losses: Dict[int, float] = field(default_factory=dict)
    completion_order: List[int] = field(default_factory=list)
    attempts: List[AttemptRecord] = field(default_factory=list)
    results: List[PipelineResult] = field(default_factory=list)

    @property
    def final(self) -> PipelineResult:
        return self.results[-1]

    @property
    def num_attempts(self) -> int:
        return len(self.attempts)

    @property
    def final_gpus(self) -> int:
        return self.attempts[-1].num_gpus

    @property
    def subnets_completed(self) -> int:
        return len(self.completion_order)

    @property
    def checkpoint_cuts(self) -> List[int]:
        return [cut for record in self.attempts for cut in record.checkpoints]

    @property
    def lost_virtual_ms(self) -> float:
        return _total(record.lost_virtual_ms for record in self.attempts)

    @property
    def recovery_latency_ms(self) -> float:
        return _total(record.recovery_latency_ms for record in self.attempts)

    @property
    def fault_count(self) -> int:
        return sum(result.fault_count for result in self.results)

    @property
    def task_retries(self) -> int:
        return sum(result.task_retries for result in self.results)

    @property
    def mitigation_actions(self) -> List[Dict]:
        """Concatenated mitigation logs of all attempts (chronological)."""
        return [
            action
            for result in self.results
            for action in result.mitigation_actions
        ]


class JobMemo:
    """What a sweep, a scheduler or a recovered run derives once per job.

    ``solo`` memoises fault-free solo verdicts (see
    :func:`~repro.service.scheduler.solo_verdict`); :meth:`inputs` hands
    every plane of one job the same :class:`SeededInputs`; ``serving``
    holds a fleet sweep's one
    :class:`~repro.serving.frontend.ServingInputs`, which every serving
    co-tenant of the sweep reads.  A memo is passed, never global: it
    lives as long as the call that built it, so no later run can find
    (or time) an earlier run's work in it.
    """

    def __init__(self) -> None:
        self.solo: Dict = {}
        self.serving = None
        self._inputs: Dict[Tuple[int, SearchSpace, int], SeededInputs] = {}

    def inputs(
        self, space: SearchSpace, seed: int, functional_batch: int
    ) -> SeededInputs:
        """The seeded inputs of the job ``(seed, space, functional_batch)``."""
        key = (seed, space, functional_batch)
        found = self._inputs.get(key)
        if found is None:
            found = SeededInputs(space, SeedSequenceTree(seed), functional_batch)
            self._inputs[key] = found
        return found


def fresh_plane(
    space: SearchSpace,
    seed: int,
    functional_batch: int,
    optimizer: Optional[MomentumSGD] = None,
    memo: Optional[JobMemo] = None,
) -> Tuple[Supernet, FunctionalPlane]:
    """A job's state before subnet 0: a new supernet and a functional
    plane initialised from ``seed`` — what every attempt, segment-0 and
    rigid restart of one logical job must start from to stay
    digest-comparable.  With a ``memo`` the plane starts from the job's
    shared seeded inputs instead of deriving its own."""
    supernet = Supernet(space)
    plane = FunctionalPlane(
        supernet,
        SeedSequenceTree(seed),
        functional_batch=functional_batch,
        optimizer=default_optimizer() if optimizer is None else optimizer,
        inputs=None if memo is None else memo.inputs(space, seed, functional_batch),
    )
    return supernet, plane


def rewarm_prefetch(engine: PipelineEngine, first) -> int:
    """Pre-warm each stage's context cache for the first resumed subnet.

    Shared by crash-restart recovery and the service plane's elastic
    resize: before a resumed engine dispatches its first task, every
    stage prefetches its home slice of ``first``, charging the copies to
    the recovery/resize window instead of a cold fetch stall on the
    critical path.  Returns the number of layers prefetched.
    """
    rewarmed = 0
    if engine.contexts is not None:
        for stage in range(engine.stages):
            start, stop = engine.home_partition[stage]
            layers = first.layers_in_range(start, stop)
            engine.prefetch_context(stage, layers)
            rewarmed += len(layers)
    return rewarmed


def build_stream(
    space: SearchSpace, seed: int, steps: int, stream_kind: str
) -> SubnetStream:
    """The seeded subnet stream one logical job trains — shared by
    recovery attempts and the service plane so every incarnation of a
    job resumes the *same* stream with original sequence IDs."""
    return SubnetStream.sample_kind(
        stream_kind, space, SeedSequenceTree(seed), steps
    )


def run_uninterrupted(
    space: SearchSpace,
    config: SystemConfig,
    *,
    num_gpus: int,
    steps: int,
    seed: int,
    batch: Optional[int] = None,
    functional_batch: int = FUNCTIONAL_BATCH,
    optimizer_factory=None,
    stream_kind: str = STREAM_KIND,
    speed_factors=None,
    faults=None,
    degradation: bool = False,
    memo: Optional[JobMemo] = None,
) -> PipelineResult:
    """The fault-free baseline a recovered run is compared against.

    ``faults`` (a :class:`FaultSchedule` or bound-ready injector) and
    ``degradation`` (arm adaptive mitigation) extend the same entry
    point to single-attempt *non-fatal* fault runs — the chaos harness's
    workhorse.  ``memo`` lends the run its job's seeded inputs.
    """
    supernet, plane = fresh_plane(
        space,
        seed,
        functional_batch,
        (optimizer_factory or default_optimizer)(),
        memo,
    )
    stream = build_stream(space, seed, steps, stream_kind)
    if isinstance(faults, FaultSchedule):
        faults = FaultInjector(faults)
    engine = PipelineEngine(
        supernet,
        stream,
        config,
        ClusterSpec(num_gpus=num_gpus, gpu_speed_factors=speed_factors),
        batch=batch,
        functional=plane,
        faults=faults,
        degradation=degradation,
    )
    return engine.run()


def run_with_recovery(
    space: SearchSpace,
    config: SystemConfig,
    schedule: FaultSchedule,
    *,
    num_gpus: int,
    steps: int,
    seed: int,
    checkpoint_dir: Union[str, Path],
    spec: Optional[RecoverySpec] = None,
    batch: Optional[int] = None,
    functional_batch: int = FUNCTIONAL_BATCH,
    optimizer_factory=None,
    stream_kind: str = STREAM_KIND,
    speed_factors=None,
    restart_speed_factors=None,
    degradation: bool = False,
) -> FaultedRunResult:
    """Run ``steps`` subnets to completion despite ``schedule``.

    ``speed_factors`` apply to the first attempt's cluster;
    ``restart_speed_factors`` to every restarted attempt (so a job can
    recover onto a slower, faster, or differently-sized replacement
    cluster — under CSP the digest is unchanged either way).

    An exhausted restart budget raises :class:`FaultToleranceError`.
    The service plane does not restart jobs through this function —
    :class:`~repro.service.scheduler.JobScheduler` keeps its own
    ``max_restarts`` budget and writes a
    :func:`~repro.ft.availability.failure_summary` record when a rigid
    tenant exhausts it.
    """
    if steps < 1:
        # a run that trained nothing would match its baseline trivially
        raise ConfigError(f"a recovered run needs steps >= 1, got {steps}")
    spec = spec or RecoverySpec()
    checkpoint_dir = Path(checkpoint_dir)
    optimizer_factory = optimizer_factory or default_optimizer
    memo = JobMemo()  # every attempt starts from the same seeded inputs
    full_stream = list(build_stream(space, seed, steps, stream_kind))

    # ``makespan_ms`` doubles as the global-clock offset of the next
    # attempt: virtual time consumed by the attempts recorded so far
    run = FaultedRunResult(
        system=config.name,
        space=space.name,
        num_gpus=num_gpus,
        digest=None,
        makespan_ms=0.0,
    )
    cursor = 0  # next subnet ID to train
    restore_from: Optional[Checkpoint] = None

    while True:
        if len(run.attempts) > MAX_RESTARTS:
            raise FaultToleranceError(
                f"restart budget exhausted: {MAX_RESTARTS} restarts, "
                f"still at subnet {cursor}/{steps}"
            )
        attempt = len(run.attempts) + 1
        offset = run.makespan_ms
        gpus = num_gpus if attempt == 1 else (spec.restart_gpus or num_gpus)
        speeds = speed_factors if attempt == 1 else restart_speed_factors

        supernet, plane = fresh_plane(
            space, seed, functional_batch, optimizer_factory(), memo
        )
        if restore_from is not None:
            restore_from.restore(plane)
        stream = SubnetStream(full_stream[cursor:], start=cursor)
        injector = FaultInjector(schedule, offset=offset)
        manager = CheckpointManager(
            plane,
            checkpoint_dir,
            spec.checkpoint_interval,
            base=cursor,
            end=steps,
            time_offset=offset,
            meta={"seed": seed, "steps": steps, "attempt": attempt},
        )
        engine = PipelineEngine(
            supernet,
            stream,
            config,
            ClusterSpec(num_gpus=gpus, gpu_speed_factors=speeds),
            batch=batch,
            functional=plane,
            faults=injector,
            checkpoints=manager,
            degradation=degradation,
        )

        recovery_latency = 0.0
        if attempt > 1:
            for stage in range(engine.stages):
                engine.trace.record_event(
                    "gpu_up", 0.0, stage=stage, attempt=attempt
                )
            engine.trace.record_event(
                "recovery_begin", 0.0, cut=cursor, attempt=attempt, gpus=gpus
            )
            rewarmed = 0
            if stream.remaining:
                rewarmed = rewarm_prefetch(engine, full_stream[cursor])
            copy_warm = max(
                (ce.next_free for ce in engine.cluster.copy_engines),
                default=0.0,
            )
            recovery_latency = RESTART_DELAY_MS + copy_warm
            engine.trace.record_event(
                "recovery_done",
                0.0,
                cut=cursor,
                attempt=attempt,
                latency_ms=recovery_latency,
                rewarmed=rewarmed,
            )

        result = engine.run()
        latest = manager.latest()
        if not result.interrupted:
            new_cursor, lost = steps, 0.0
        elif latest is not None:
            # crashed: roll back to the latest consistent cut
            restore_from = latest
            new_cursor = latest.cut
            lost = result.interrupt_time_ms - (latest.time_ms - offset)
        else:
            # no new checkpoint this attempt: resume from the previous
            # one (or from scratch) — the whole attempt's progress since
            # then is lost
            new_cursor, lost = cursor, result.interrupt_time_ms
        kept = [sid for sid in result.completion_order if sid < new_cursor]
        run.completion_order.extend(kept)
        run.losses.update(
            (sid, result.losses[sid]) for sid in kept if sid in result.losses
        )
        run.results.append(result)
        run.attempts.append(
            AttemptRecord(
                attempt=attempt,
                num_gpus=gpus,
                resumed_from=cursor,
                interrupted=result.interrupted,
                interrupt_kind=result.interrupt_kind,
                makespan_ms=result.makespan_ms,
                checkpoints=[c.cut for c in manager.commits],
                completed_kept=len(kept),
                lost_virtual_ms=lost,
                recovery_latency_ms=recovery_latency,
            )
        )
        if not result.interrupted:
            run.digest = result.digest
            run.makespan_ms += result.makespan_ms
            return run
        cursor = new_cursor
        run.makespan_ms += result.interrupt_time_ms + RESTART_DELAY_MS
