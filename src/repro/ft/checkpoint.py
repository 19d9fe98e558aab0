"""Consistent-cut checkpointing driven by the CSP frontier.

A checkpoint at cut ``x`` must capture *exactly* the parameter state a
sequential run would have after subnets ``< x`` — every WRITE with
sequence ID below ``x`` applied, no WRITE at or above ``x`` applied
(Definition 1's prefix state).  The pipeline never pauses at ``x``:
subnets ``>= x`` are already in flight and committing while earlier ones
drain, so a naive "snapshot the store when subnet ``x-1`` completes" is
inconsistent.

The manager instead keeps an **undo log** per open cut.  Every commit is
observed *before* it lands: for a write by subnet ``s`` to layer ``L``
and each open cut ``x <= s`` that has no entry for ``L`` yet, the current
(pre-write) value of ``L`` — and the optimizer velocity behind it — is
recorded.  Under CSP, writes to any single layer occur in subnet order
(that is the causal-order invariant), so the pre-image at the *first*
write by any subnet ``>= x`` equals the post-``<x`` state exactly.  When
the completion frontier reaches ``x``, the cut materialises: current
store overlaid with the cut's undo entries, serialised by the one
``.npz`` encoder (:func:`repro.nn.parameter_store.save_members`) that
:meth:`ParameterStore.save` uses.

Under ASP the same construction is **silently wrong** — per-layer writes
are not subnet-ordered, so the first ``>= x`` write may land *between*
two ``< x`` writes and the recorded pre-image is not a prefix state.
Recovery from such a checkpoint diverges from the uninterrupted run.
That asymmetry is measured, not asserted: the recovery tests show CSP
restoring bitwise-identical digests while ASP does not.

Alongside parameters and velocity, a checkpoint records the stream
cursor (= the cut: the next subnet ID to train) and the RNG state of
every cached named stream (:meth:`SeedSequenceTree.snapshot_state`), so
a restart rebuilds the complete mutable state of the functional plane.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.nn.parameter_store import LayerId, digest_params, save_members
from repro.payload import indented

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engines.functional_plane import FunctionalPlane
    from repro.engines.pipeline import PipelineEngine

__all__ = ["Checkpoint", "CheckpointManager"]

_Params = Dict[str, np.ndarray]


@dataclass
class Checkpoint:
    """One committed consistent cut on disk."""

    cut: int
    directory: Path
    time_ms: float  # global virtual time of the commit
    digest: str
    num_layers: int
    nbytes: int
    rng_state: Optional[Dict[str, object]] = None
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def params_path(self) -> Path:
        return self.directory / "params.npz"

    @property
    def velocity_path(self) -> Path:
        return self.directory / "velocity.npz"

    @property
    def meta_path(self) -> Path:
        return self.directory / "meta.json"

    # ------------------------------------------------------------------
    def save_meta(self) -> None:
        payload = {
            "cut": self.cut,
            "time_ms": self.time_ms,
            "digest": self.digest,
            "num_layers": self.num_layers,
            "nbytes": self.nbytes,
            "rng_state": self.rng_state,
            "meta": self.meta,
        }
        self.meta_path.write_text(indented(payload))

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "Checkpoint":
        directory = Path(directory)
        payload = json.loads((directory / "meta.json").read_text())
        return cls(
            cut=payload["cut"],
            directory=directory,
            time_ms=payload["time_ms"],
            digest=payload["digest"],
            num_layers=payload["num_layers"],
            nbytes=payload["nbytes"],
            rng_state=payload.get("rng_state"),
            meta=payload.get("meta", {}),
        )

    # ------------------------------------------------------------------
    def restore(self, plane: "FunctionalPlane") -> None:
        """Load the cut's parameters and optimizer velocity into a fresh
        functional plane, and resume its cached RNG streams."""
        velocity = self.velocity_path if self.velocity_path.exists() else None
        plane.load_checkpoint(self.params_path, velocity)
        if self.rng_state is not None:
            state = _intify_rng_state(self.rng_state)
            plane.seeds.restore_state(state)


def _intify_rng_state(state: Dict[str, object]) -> Dict[str, object]:
    """JSON round-trips PCG64 state ints fine, but nested dict values may
    arrive as plain dicts — normalise recursively (ints stay ints)."""
    return json.loads(json.dumps(state))


class CheckpointManager:
    """Observes commits, keeps per-cut undo logs, materialises cuts.

    One manager serves one engine attempt over stream ids
    ``[base, end)``; cut points are the absolute multiples of
    ``interval`` strictly inside that range (so checkpoints from
    different attempts of the same run line up on the same sequence
    IDs).
    """

    def __init__(
        self,
        plane: "FunctionalPlane",
        directory: Union[str, Path],
        interval: int,
        base: int,
        end: int,
        time_offset: float = 0.0,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        if interval < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {interval}")
        self.plane = plane
        self.directory = Path(directory)
        self.interval = interval
        self.base = base
        self.end = end
        self.time_offset = time_offset
        self.meta = dict(meta or {})
        first = ((base // interval) + 1) * interval
        #: open cuts, ascending; a cut leaves when it materialises
        self._pending: List[int] = list(range(first, end, interval))
        #: per-cut undo log: layer -> pre-image params (None = the layer
        #: did not exist before the first >= cut write; omit on restore,
        #: factory init recreates it bitwise)
        self._undo_params: Dict[int, Dict[LayerId, Optional[_Params]]] = {
            cut: {} for cut in self._pending
        }
        #: per-cut velocity pre-images, keyed (layer, name); None = no
        #: velocity existed (omit; a fresh optimizer starts from zeros)
        self._undo_velocity: Dict[
            int, Dict[Tuple[LayerId, str], Optional[np.ndarray]]
        ] = {cut: {} for cut in self._pending}
        self._completed: set = set()
        self._frontier = base
        self.commits: List[Checkpoint] = []
        self.engine: "PipelineEngine | None" = None

    # ------------------------------------------------------------------
    def bind(self, engine: "PipelineEngine") -> None:
        self.engine = engine

    def latest(self) -> Optional[Checkpoint]:
        return self.commits[-1] if self.commits else None

    # ------------------------------------------------------------------
    # the undo log: called by the engine before every commit
    # ------------------------------------------------------------------
    def observe_updates(self, updates) -> None:
        """Record pre-images for every open cut the batch crosses.

        Must run *before* the functional plane applies ``updates`` — the
        whole point is capturing the state the write is about to clobber.
        """
        if not self._pending:
            return
        store = self.plane.store
        velocity = getattr(self.plane.optimizer, "_velocity", None)
        for update in updates:
            subnet_id = update.subnet_id
            for cut in self._pending:
                if cut > subnet_id:
                    break  # ascending: later cuts contain this write
                undo_p = self._undo_params[cut]
                if update.layer in undo_p:
                    continue  # only the first >= cut write matters
                if update.layer in store:
                    current = store.materialize(update.layer)
                    undo_p[update.layer] = {
                        name: array.copy() for name, array in current.items()
                    }
                    if velocity is not None:
                        undo_v = self._undo_velocity[cut]
                        for name in update.grads:
                            key = (update.layer, name)
                            existing = velocity.get(key)
                            undo_v[key] = (
                                existing.copy() if existing is not None else None
                            )
                else:
                    undo_p[update.layer] = None

    # ------------------------------------------------------------------
    # cut materialisation: called by the engine on subnet completion
    # ------------------------------------------------------------------
    def on_subnet_complete(self, subnet_id: int, now: float) -> None:
        self._completed.add(subnet_id)
        while self._frontier in self._completed:
            self._completed.discard(self._frontier)
            self._frontier += 1
        while self._pending and self._pending[0] <= self._frontier:
            self._materialize(self._pending.pop(0), now)

    def _materialize(self, cut: int, now: float) -> None:
        trace = self.engine.trace if self.engine is not None else None
        if trace is not None:
            trace.record_event("checkpoint_begin", now, cut=cut)

        store = self.plane.store
        undo_p = self._undo_params.pop(cut)
        undo_v = self._undo_velocity.pop(cut)

        params: Dict[LayerId, _Params] = {}
        for layer in store.materialized_layers:
            if layer in undo_p:
                pre = undo_p[layer]
                if pre is None:
                    continue  # born after the cut: factory init restores it
                params[layer] = pre
            else:
                current = store.materialize(layer)
                params[layer] = {
                    name: array.copy() for name, array in current.items()
                }

        velocity_state = getattr(self.plane.optimizer, "_velocity", None) or {}
        velocity: Dict[Tuple[LayerId, str], np.ndarray] = {}
        for key, array in velocity_state.items():
            layer, _name = key
            if key in undo_v:
                pre = undo_v[key]
                if pre is None:
                    continue  # no velocity existed before the cut
                velocity[key] = pre
            elif layer in undo_p and undo_p[layer] is None:
                continue  # the whole layer postdates the cut
            else:
                velocity[key] = array.copy()

        directory = self.directory / f"ckpt_{cut:06d}"
        directory.mkdir(parents=True, exist_ok=True)
        arrays = {
            (layer, name): array
            for layer, layer_params in params.items()
            for name, array in layer_params.items()
        }
        save_members(directory / "params.npz", arrays)
        if velocity:
            save_members(directory / "velocity.npz", velocity)
        nbytes = sum(a.nbytes for a in arrays.values()) + sum(
            a.nbytes for a in velocity.values()
        )
        checkpoint = Checkpoint(
            cut=cut,
            directory=directory,
            time_ms=now + self.time_offset,
            digest=digest_params(params),
            num_layers=len(params),
            nbytes=nbytes,
            rng_state=self.plane.seeds.snapshot_state(),
            meta=dict(self.meta),
        )
        checkpoint.save_meta()
        self.commits.append(checkpoint)
        if trace is not None:
            trace.record_event(
                "checkpoint_commit",
                now,
                cut=cut,
                layers=len(params),
                nbytes=nbytes,
            )
