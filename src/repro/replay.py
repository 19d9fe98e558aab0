"""Deterministic training replay (paper §1, §2.1).

The paper motivates reproducibility with post-training analysis: "with the
training reproducibility, the re-runs are deterministic, including all the
collected information, making supernet training much easier to inspect,
analyze, and debug."  This module packages that workflow:

* :class:`RunManifest` — everything needed to replay a training run
  (space, system config, cluster, seed, stream length, and the recorded
  outcome fingerprints), serialisable to JSON;
* :func:`execute_manifest` — run (or re-run) a manifest;
* :func:`verify_replay` — re-execute and assert the digest, every loss,
  and the subnet completion order all match the recorded run.

A manifest is a *claim* about a run; `verify_replay` makes the claim
checkable by any party with the code — the artifact-evaluation story,
in library form.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.baselines import resolve_target
from repro.config import SystemConfig
from repro.errors import ReproducibilityError
from repro.nn.optim import MomentumSGD
from repro.payload import indented, sha256
from repro.supernet.search_space import SearchSpace

__all__ = ["RunManifest", "execute_manifest", "record_run", "verify_replay"]

_MANIFEST_VERSION = 1


@dataclass
class RunManifest:
    """A replayable description of one training run."""

    version: int
    space_name: str
    space_overrides: Dict[str, object]
    system_name: str
    system_overrides: Dict[str, object]
    num_gpus: int
    seed: int
    steps: int
    batch: Optional[int]
    stream_kind: str
    functional_batch: int
    learning_rate: float
    momentum: float
    max_grad_norm: Optional[float]
    # fault tolerance (repro.ft): a faulted run is replayable too — the
    # fault schedule and recovery policy are part of the run's identity
    fault_events: List[Dict[str, object]] = field(default_factory=list)
    checkpoint_interval: Optional[int] = None
    recovery_gpus: Optional[int] = None
    # graceful degradation (repro.ft.degradation): per-GPU speed factors
    # model a heterogeneous/straggling cluster, and ``degradation`` arms
    # adaptive mitigation — both are part of the run's identity, and
    # the mitigation sequence the run took is a recorded outcome that
    # replay must reproduce action-for-action
    speed_factors: Optional[List[float]] = None
    degradation: bool = False
    # recorded outcome
    digest: Optional[str] = None
    losses: Dict[str, float] = field(default_factory=dict)
    completion_order: List[int] = field(default_factory=list)
    makespan_ms: Optional[float] = None
    checkpoint_cuts: List[int] = field(default_factory=list)
    attempts: Optional[int] = None
    mitigation_actions: List[Dict[str, object]] = field(default_factory=list)

    #: fields that record what the run *produced* rather than what it
    #: *was* — excluded from the identity digest so a manifest digests
    #: the same before and after its outcomes are filled in
    OUTCOME_FIELDS = (
        "digest",
        "losses",
        "completion_order",
        "makespan_ms",
        "checkpoint_cuts",
        "attempts",
        "mitigation_actions",
    )

    def config_digest(self) -> str:
        """SHA-256 over the manifest's identity fields (canonical JSON,
        outcomes excluded) — the key the run registry
        (:mod:`repro.obs.registry`) files runs under."""
        payload = dataclasses.asdict(self)
        for field_name in self.OUTCOME_FIELDS:
            payload.pop(field_name, None)
        return sha256(payload)

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return indented(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        payload = json.loads(text)
        if payload.get("version") != _MANIFEST_VERSION:
            raise ReproducibilityError(
                f"manifest version {payload.get('version')} not supported"
            )
        return cls(**payload)

    def save(self, path: "Path | str") -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: "Path | str") -> "RunManifest":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------
    def resolve(self) -> Tuple[SearchSpace, SystemConfig]:
        """The search space and system config the run trained."""
        return resolve_target(
            self.space_name,
            self.space_overrides,
            self.system_name,
            self.system_overrides,
            path="manifest",
        )

    def resolve_space(self) -> SearchSpace:
        return self.resolve()[0]

    def resolve_system(self) -> SystemConfig:
        return self.resolve()[1]


def _build_manifest(
    space_name: str,
    system_name: str,
    *,
    space_overrides: Optional[Dict[str, object]] = None,
    system_overrides: Optional[Dict[str, object]] = None,
    num_gpus: int = 8,
    seed: int = 2022,
    steps: int = 100,
    batch: Optional[int] = None,
    stream_kind: str = "spos",
    functional_batch: int = 8,
    learning_rate: float = 0.3,
    momentum: float = 0.9,
    max_grad_norm: Optional[float] = 5.0,
    fault_events: Optional[List[Dict[str, object]]] = None,
    checkpoint_interval: Optional[int] = None,
    recovery_gpus: Optional[int] = None,
    speed_factors: Optional[List[float]] = None,
    degradation: bool = False,
) -> RunManifest:
    return RunManifest(
        version=_MANIFEST_VERSION,
        space_name=space_name,
        space_overrides=dict(space_overrides or {}),
        system_name=system_name,
        system_overrides=dict(system_overrides or {}),
        num_gpus=num_gpus,
        seed=seed,
        steps=steps,
        batch=batch,
        stream_kind=stream_kind,
        functional_batch=functional_batch,
        learning_rate=learning_rate,
        momentum=momentum,
        max_grad_norm=max_grad_norm,
        fault_events=list(fault_events or []),
        checkpoint_interval=checkpoint_interval,
        recovery_gpus=recovery_gpus,
        speed_factors=list(speed_factors) if speed_factors else None,
        degradation=degradation,
    )


def execute_manifest(
    manifest: RunManifest,
    checkpoint_dir: Optional[Union[str, Path]] = None,
):
    """Run the training described by ``manifest`` and return the result.

    A manifest with ``fault_events`` replays the full crash-restart
    history through :func:`repro.ft.recovery.run_with_recovery` (the
    checkpoints go to ``checkpoint_dir``, or a temporary directory when
    none is given) and returns a
    :class:`~repro.ft.recovery.FaultedRunResult`; otherwise a plain
    :class:`~repro.engines.pipeline.PipelineResult` from
    :func:`~repro.ft.recovery.run_uninterrupted`.
    """
    # repro.ft stays off ``import repro``'s path (the CLI's cold start)
    from repro.ft.recovery import run_uninterrupted

    space, system = manifest.resolve()
    run = dict(
        num_gpus=manifest.num_gpus,
        steps=manifest.steps,
        seed=manifest.seed,
        batch=manifest.batch,
        functional_batch=manifest.functional_batch,
        optimizer_factory=lambda: MomentumSGD(
            manifest.learning_rate, manifest.momentum, manifest.max_grad_norm
        ),
        stream_kind=manifest.stream_kind,
        speed_factors=(
            tuple(manifest.speed_factors) if manifest.speed_factors else None
        ),
        # older manifests hold the thresholds dict here; any non-empty
        # one arms mitigation
        degradation=bool(manifest.degradation),
    )
    if manifest.fault_events:
        return _execute_faulted(manifest, space, system, run, checkpoint_dir)
    return run_uninterrupted(space, system, **run)


def _execute_faulted(
    manifest: RunManifest,
    space: SearchSpace,
    system: SystemConfig,
    run: Dict[str, object],
    checkpoint_dir: Optional[Union[str, Path]],
):
    from repro.ft.faults import FaultSchedule
    from repro.ft.recovery import RecoverySpec, run_with_recovery

    schedule = FaultSchedule.from_payload(manifest.fault_events)
    spec = RecoverySpec(
        checkpoint_interval=manifest.checkpoint_interval or 8,
        restart_gpus=manifest.recovery_gpus,
    )

    def run_in(directory: Union[str, Path]):
        return run_with_recovery(
            space, system, schedule, checkpoint_dir=directory, spec=spec, **run
        )

    if checkpoint_dir is not None:
        return run_in(checkpoint_dir)
    with tempfile.TemporaryDirectory(prefix="naspipe-ckpt-") as tmp:
        return run_in(tmp)


def record_run(space_name: str, system_name: str, **kwargs) -> RunManifest:
    """Execute a fresh run and return its manifest with outcomes filled."""
    manifest = _build_manifest(space_name, system_name, **kwargs)
    result = execute_manifest(manifest)
    manifest.digest = result.digest
    manifest.losses = {str(sid): loss for sid, loss in result.losses.items()}
    manifest.completion_order = list(result.completion_order)
    manifest.makespan_ms = result.makespan_ms
    manifest.checkpoint_cuts = list(result.checkpoint_cuts)
    manifest.attempts = result.num_attempts
    manifest.mitigation_actions = list(result.mitigation_actions)
    return manifest


def verify_replay(manifest: RunManifest):
    """Re-execute ``manifest`` and check every recorded fingerprint.

    Raises :class:`ReproducibilityError` on the first mismatch; returns
    the fresh result when everything matches.  Length mismatches fail
    loudly *before* elementwise comparison: a replay that completed a
    different number of subnets than the recorded run is reported as
    such, not as the first element that happens to differ.
    """
    if manifest.digest is None:
        raise ReproducibilityError("manifest has no recorded outcome to verify")
    result = execute_manifest(manifest)
    if result.digest != manifest.digest:
        raise ReproducibilityError(
            f"replay digest {result.digest} != recorded {manifest.digest}"
        )
    fresh_order = list(result.completion_order)
    if len(fresh_order) != len(manifest.completion_order):
        raise ReproducibilityError(
            f"replay completed {len(fresh_order)} subnets, recorded run "
            f"completed {len(manifest.completion_order)} — the runs are "
            "not the same length"
        )
    recorded_loss_ids = {int(sid) for sid in manifest.losses}
    fresh_loss_ids = set(result.losses)
    if recorded_loss_ids != fresh_loss_ids:
        missing = sorted(recorded_loss_ids - fresh_loss_ids)
        extra = sorted(fresh_loss_ids - recorded_loss_ids)
        raise ReproducibilityError(
            f"replay loss set differs from recorded: missing {missing}, "
            f"unexpected {extra}"
        )
    for sid_str, recorded_loss in manifest.losses.items():
        fresh = result.losses.get(int(sid_str))
        if fresh != recorded_loss:
            raise ReproducibilityError(
                f"replay loss for subnet {sid_str}: {fresh!r} != "
                f"recorded {recorded_loss!r}"
            )
    if fresh_order != manifest.completion_order:
        raise ReproducibilityError("replay completion order differs")
    if result.makespan_ms != manifest.makespan_ms:
        raise ReproducibilityError(
            f"replay makespan {result.makespan_ms} != {manifest.makespan_ms}"
        )
    fresh_cuts = list(result.checkpoint_cuts)
    if manifest.checkpoint_cuts and fresh_cuts != manifest.checkpoint_cuts:
        raise ReproducibilityError(
            f"replay checkpoint cuts {fresh_cuts} != recorded "
            f"{manifest.checkpoint_cuts}"
        )
    fresh_actions = list(result.mitigation_actions)
    if fresh_actions != manifest.mitigation_actions:
        raise ReproducibilityError(
            f"replay took {len(fresh_actions)} mitigation action(s), "
            f"recorded run took {len(manifest.mitigation_actions)} — the "
            "degraded-mode decisions did not replay deterministically"
            if len(fresh_actions) != len(manifest.mitigation_actions)
            else "replay mitigation sequence differs from the recorded run"
        )
    return result
