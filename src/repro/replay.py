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

import contextlib
import dataclasses
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro import payload
from repro.baselines import resolve_target
from repro.config import SystemConfig
from repro.engines.functional_plane import FUNCTIONAL_BATCH, STREAM_KIND
from repro.engines.functional_plane import LEARNING_RATE, MAX_GRAD_NORM, MOMENTUM
from repro.errors import ReproducibilityError
from repro.invariants import same_training
from repro.nn.optim import MomentumSGD
from repro.supernet.search_space import SearchSpace

__all__ = ["RunManifest", "execute_manifest", "record_run", "verify_replay"]

_MANIFEST_VERSION = 1


@dataclass
class RunManifest:
    """A replayable description of one training run.  Only the space
    and the system are required; the training fields default to the
    recorded-run recipe (:mod:`repro.engines.functional_plane`)."""

    space_name: str
    system_name: str
    version: int = _MANIFEST_VERSION
    space_overrides: Dict[str, object] = field(default_factory=dict)
    system_overrides: Dict[str, object] = field(default_factory=dict)
    num_gpus: int = 8
    seed: int = 2022
    steps: int = 100
    batch: Optional[int] = None
    stream_kind: str = STREAM_KIND
    functional_batch: int = FUNCTIONAL_BATCH
    learning_rate: float = LEARNING_RATE
    momentum: float = MOMENTUM
    max_grad_norm: Optional[float] = MAX_GRAD_NORM
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
        identity = dataclasses.asdict(self)
        for field_name in self.OUTCOME_FIELDS:
            identity.pop(field_name, None)
        return payload.sha256(identity)

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return payload.indented(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Read a manifest :meth:`to_json` wrote.  A record, not a
        config: every field is required, and a key of the wrong type, an
        unknown or a missing one is a :class:`~repro.errors.ConfigError`
        naming ``manifest`` and the key."""
        record = json.loads(text)
        # version 1 once wrote the mitigation thresholds under
        # ``degradation``: an object there means armed, and is kept as it
        # was so the manifest keeps its config digest
        thresholds = None
        if isinstance(record, Mapping) and isinstance(record.get("degradation"), Mapping):
            thresholds = record["degradation"]
            record = {**record, "degradation": bool(thresholds)}
        manifest = payload.build(cls, record, "manifest")
        payload.require(record, payload.accepted(cls), "manifest")
        if manifest.version != _MANIFEST_VERSION:
            raise ReproducibilityError(f"manifest version {manifest.version} not supported")
        if thresholds is not None:
            manifest.degradation = thresholds
        return manifest

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
    from repro.ft import FaultSchedule, RecoverySpec, run_uninterrupted, run_with_recovery

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
    if not manifest.fault_events:
        return run_uninterrupted(space, system, **run)
    schedule = FaultSchedule.from_payload(manifest.fault_events)
    spec = RecoverySpec(
        checkpoint_interval=manifest.checkpoint_interval or RecoverySpec.checkpoint_interval,
        restart_gpus=manifest.recovery_gpus,
    )
    scratch = (
        tempfile.TemporaryDirectory(prefix="naspipe-ckpt-")
        if checkpoint_dir is None
        else contextlib.nullcontext(checkpoint_dir)
    )
    with scratch as directory:
        return run_with_recovery(
            space, system, schedule, checkpoint_dir=directory, spec=spec, **run
        )


def record_run(space_name: str, system_name: str, **kwargs) -> RunManifest:
    """Execute a fresh run and return its manifest with outcomes filled."""
    manifest = RunManifest(space_name, system_name, **kwargs)
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
    the fresh result when everything matches.  Digest and losses come
    first (:func:`~repro.invariants.same_training`, which reports a
    replay of a different length as such, not as the first loss that
    happens to differ), then order, makespan, cuts and mitigations.
    """
    if manifest.digest is None:
        raise ReproducibilityError("manifest has no recorded outcome to verify")
    result = execute_manifest(manifest)
    diverged = same_training(manifest, result)
    if diverged:
        raise ReproducibilityError("replay " + "; ".join(diverged))
    fresh_order = list(result.completion_order)
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
