"""Forward/backward programs over one pipeline stage's slice of a subnet.

A pipeline stage owns a contiguous run of a subnet's chosen layers.  The
:class:`SubnetSegmentProgram` executes that run against the shared
:class:`~repro.nn.parameter_store.ParameterStore`:

* ``forward`` READs each layer's parameters (logged), stashes the
  snapshots and activation caches, and returns the stage output;
* ``backward`` consumes the stash, produces gradients per layer plus the
  gradient flowing to the previous stage;
* ``commit_updates`` applies the optimizer and WRITEs new parameters.

Gradient computation and update commitment are deliberately split: a sync
policy decides *when* writes land (immediately for CSP/ASP, at the bulk
barrier for BSP), and that decision — not the math — is what makes runs
reproducible or not.

Activation recomputation (GPipe-style checkpointing, used by NASPipe,
GPipe and VPipe per the paper's §4.2) is supported: with
``recompute=True`` the forward keeps only the stage *input* and parameter
snapshots, and the backward first re-runs the forward to rebuild caches.
Because snapshots are used, recomputation is bit-identical to caching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import layer_backward, layer_forward
from repro.nn.parameter_store import LayerId, ParameterStore

__all__ = ["StageActivation", "SubnetSegmentProgram", "LayerRef"]

#: A stage layer reference: (layer id, implementation family name).
LayerRef = Tuple[LayerId, str]


@dataclass
class StageActivation:
    """Everything ``backward`` needs from a stage's ``forward``."""

    subnet_id: int
    stage: int
    layers: Sequence[LayerRef]
    stage_input: np.ndarray
    param_snapshots: List[Dict[str, np.ndarray]]
    caches: Optional[List[Any]]
    stage_output: np.ndarray


@dataclass
class PendingUpdate:
    """A gradient awaiting commitment (used by buffered/BSP policies)."""

    subnet_id: int
    layer: LayerId
    grads: Dict[str, np.ndarray]


class SubnetSegmentProgram:
    """Executes a stage slice of a subnet on the functional plane.

    ``residual_blocks`` wraps every choice block as ``y = x + layer(x)``,
    matching the residual cell structure of the paper's search spaces
    (Evolved Transformer, AmoebaNet); without it, deep randomly
    initialised chains wash out the input signal and nothing trains.
    """

    #: residual-branch scaling (ReZero/DeepNet-style): keeps activations
    #: bounded through up-to-48-block chains while preserving the skip
    #: path's signal.
    RESIDUAL_SCALE = np.float32(0.25)

    def __init__(
        self,
        store: ParameterStore,
        recompute: bool = False,
        residual_blocks: bool = True,
    ) -> None:
        self.store = store
        self.recompute = recompute
        self.residual_blocks = residual_blocks

    # ------------------------------------------------------------------
    def forward(
        self,
        subnet_id: int,
        stage: int,
        layers: Sequence[LayerRef],
        stage_input: np.ndarray,
        time: float = 0.0,
    ) -> StageActivation:
        """Run the stage forward; READs are logged in subnet order."""
        x = stage_input
        snapshots: List[Dict[str, np.ndarray]] = []
        caches: List[Any] = []
        for layer_id, impl in layers:
            params = self.store.read(layer_id, subnet_id, time)
            snapshots.append(params)
            out, cache = layer_forward(impl, x, params)
            x = x + self.RESIDUAL_SCALE * out if self.residual_blocks else out
            caches.append(cache)
        return StageActivation(
            subnet_id=subnet_id,
            stage=stage,
            layers=list(layers),
            stage_input=stage_input,
            param_snapshots=snapshots,
            caches=None if self.recompute else caches,
            stage_output=x,
        )

    # ------------------------------------------------------------------
    def _rebuild_caches(self, activation: StageActivation) -> List[Any]:
        """Re-run the forward from stashed snapshots (checkpointing)."""
        x = activation.stage_input
        caches: List[Any] = []
        for (layer_id, impl), params in zip(
            activation.layers, activation.param_snapshots
        ):
            out, cache = layer_forward(impl, x, params)
            x = x + self.RESIDUAL_SCALE * out if self.residual_blocks else out
            caches.append(cache)
        return caches

    def backward(
        self, activation: StageActivation, doutput: np.ndarray
    ) -> Tuple[np.ndarray, List[PendingUpdate]]:
        """Backprop through the stage; returns (dinput, pending updates).

        Updates are ordered front-to-back by layer position so that
        committing them in list order reproduces the sequential trainer's
        write order within the stage.
        """
        caches = activation.caches
        if caches is None:
            caches = self._rebuild_caches(activation)
        grad = doutput
        reversed_updates: List[PendingUpdate] = []
        for (layer_id, impl), params, cache in zip(
            reversed(activation.layers),
            reversed(activation.param_snapshots),
            reversed(caches),
        ):
            dx, layer_grads = layer_backward(impl, grad, cache, params)
            # With block residuals the skip path carries the upstream
            # gradient straight through: d(input) = d(out) + dx.
            grad = grad + self.RESIDUAL_SCALE * dx if self.residual_blocks else dx
            reversed_updates.append(
                PendingUpdate(activation.subnet_id, layer_id, layer_grads)
            )
        return grad, list(reversed(reversed_updates))

    # ------------------------------------------------------------------
    def commit_updates(
        self,
        updates: Sequence[PendingUpdate],
        optimizer,
        time: float = 0.0,
    ) -> None:
        """Apply ``updates`` through ``optimizer`` and WRITE to the store.

        The read-modify-write uses the store's *current* values (not the
        forward snapshot): under CSP nothing can have intervened, so this
        equals the sequential trainer; under BSP/ASP whatever interleaving
        the policy allowed is faithfully reflected in the result.
        """
        for update in updates:
            current = self.store.materialize(update.layer)
            new_values = optimizer.apply(update.layer, current, update.grads)
            self.store.write(update.layer, update.subnet_id, new_values, time)
