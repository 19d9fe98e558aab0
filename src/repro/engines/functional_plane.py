"""The functional training plane: real numpy math driven in event order.

The pipeline engine decides *when* each stage's forward/backward happens;
this plane performs the corresponding parameter READs, computation and
WRITEs at those instants.  Because the plane is deterministic, the only
thing that can change a run's final weights is the interleaving the sync
policy permits — which is exactly the paper's reproducibility argument.

The plane deliberately uses a small *functional batch* independent of the
timing plane's (memory-limited) batch: Definition 1 is about bit equality
under reordering, which is insensitive to batch width, and a small batch
keeps thousand-subnet experiments fast on a laptop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.synthetic import SyntheticTaskData
from repro.nn import functional as F
from repro.nn.init import layer_init_generator
from repro.nn.layers import build_parameters, layer_forward
from repro.nn.loss import cross_entropy_with_logits
from repro.nn.parameter_store import (
    LayerId,
    ParameterStore,
    load_members,
    save_members,
)
from repro.nn.program import PendingUpdate, StageActivation, SubnetSegmentProgram
from repro.nn.optim import SGD, MomentumSGD
from repro.payload import integer
from repro.seeding import SeedSequenceTree
from repro.supernet.search_space import SearchSpace
from repro.supernet.subnet import Subnet
from repro.supernet.supernet import Supernet

__all__ = [
    "FunctionalPlane", "SeededInputs", "FUNCTIONAL_BATCH", "STREAM_KIND", "LEARNING_RATE",
    "MOMENTUM", "MAX_GRAD_NORM", "default_optimizer",
]

#: The recorded-run recipe, written once: what a manifest, a recovered
#: run, a service job and a trainer train unless told otherwise, so their
#: digests are directly comparable.
FUNCTIONAL_BATCH = 8
STREAM_KIND = "spos"
LEARNING_RATE, MOMENTUM, MAX_GRAD_NORM = 0.3, 0.9, 5.0


def default_optimizer() -> MomentumSGD:
    """Momentum at a brisk learning rate makes update-order effects
    (BSP's staleness, ASP's inconsistency) visible in final loss, as the
    paper's Table 3 shows at production scale."""
    return MomentumSGD(LEARNING_RATE, MOMENTUM, MAX_GRAD_NORM)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class SeededInputs:
    """What one job starts from, derived from its seed once.

    A layer's initial weights are a pure function of (root seed, layer,
    impl, width) and a subnet's training batch of (root seed, space,
    subnet id, functional batch), so every plane of one job — each
    attempt, segment, restart and its solo baseline — can start from one
    source.  Everything handed out is read-only: a plane's store trains
    private copies of the weights, and a batch is only ever read, so an
    accidental in-place write raises instead of leaking into another
    plane.
    """

    def __init__(
        self, space: SearchSpace, seeds: SeedSequenceTree, functional_batch: int
    ) -> None:
        self.space = space
        self.seeds = seeds
        # an empty batch trains nothing and a negative one is no shape at all
        self.functional_batch = integer(
            "functional plane", "functional_batch", functional_batch, 1
        )
        #: the frozen data encoders and teacher head, drawn once
        self.data = SyntheticTaskData(space, seeds)
        self._weights: Dict[LayerId, Dict[str, np.ndarray]] = {}
        self._batches: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def weights(self, layer: LayerId, impl: str) -> Dict[str, np.ndarray]:
        """The pristine (read-only) initial parameters of ``layer``."""
        params = self._weights.get(layer)
        if params is None:
            rng = layer_init_generator(self.seeds, layer)
            built = build_parameters(impl, self.space.functional_width, rng)
            params = {name: _frozen(array) for name, array in built.items()}
            self._weights[layer] = params
        return params

    def batch(self, subnet_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """The read-only ``(features, targets)`` training batch of a subnet."""
        found = self._batches.get(subnet_id)
        if found is None:
            features, targets = self.data.batch(subnet_id, self.functional_batch)
            found = self._batches[subnet_id] = (_frozen(features), _frozen(targets))
        return found


class FunctionalPlane:
    """Owns the parameter store, data source, head, and optimizer.

    ``inputs`` is the job's :class:`SeededInputs`; without one the plane
    derives its own, as a lone run does.
    """

    def __init__(
        self,
        supernet: Supernet,
        seeds: SeedSequenceTree,
        functional_batch: int = FUNCTIONAL_BATCH,
        optimizer=None,
        recompute: bool = False,
        record_accesses: bool = True,
        inputs: Optional[SeededInputs] = None,
    ) -> None:
        if inputs is None:
            inputs = SeededInputs(supernet.space, seeds, functional_batch)
        elif (inputs.space, inputs.seeds.root_seed, inputs.functional_batch) != (
            supernet.space,
            seeds.root_seed,
            functional_batch,
        ):
            raise ValueError(
                "seeded inputs derived for another job: space, root seed and "
                "functional batch must match the plane's"
            )
        self.supernet = supernet
        self.space = supernet.space
        self.seeds = seeds
        self.functional_batch = functional_batch
        self.inputs = inputs
        self.optimizer = optimizer if optimizer is not None else SGD()

        def factory(layer: LayerId) -> Dict[str, np.ndarray]:
            pristine = inputs.weights(layer, supernet.impl_for(layer))
            return {name: array.copy() for name, array in pristine.items()}

        self.store = ParameterStore(factory, record_accesses=record_accesses)
        self.program = SubnetSegmentProgram(self.store, recompute=recompute)
        self.data = inputs.data
        # The classification head is frozen: it is shared by *every*
        # subnet, so making it trainable would causally chain all subnets
        # and serialise the pipeline; real supernet systems keep shared
        # stem/head updates out of the per-subnet causal order.  Using the
        # data teacher as the head makes the task well-posed — a subnet
        # close to the identity map already classifies well, and training
        # refines from there (the residual cells start near identity).
        self.head = self.data.teacher
        self._targets: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def layer_refs(
        self, subnet: Subnet, start: int, stop: int
    ) -> List[Tuple[LayerId, str]]:
        return [
            (layer, self.supernet.impl_for(layer))
            for layer in subnet.layers_in_range(start, stop)
        ]

    def input_for(self, subnet: Subnet) -> np.ndarray:
        features, targets = self.inputs.batch(subnet.subnet_id)
        self._targets[subnet.subnet_id] = targets
        return features

    # ------------------------------------------------------------------
    def forward_stage(
        self,
        subnet: Subnet,
        stage: int,
        block_range: Tuple[int, int],
        stage_input: np.ndarray,
        time: float,
    ) -> StageActivation:
        start, stop = block_range
        return self.program.forward(
            subnet.subnet_id,
            stage,
            self.layer_refs(subnet, start, stop),
            stage_input,
            time,
        )

    def loss_and_grad(
        self, subnet: Subnet, final_output: np.ndarray
    ) -> Tuple[np.float32, np.ndarray]:
        """Head projection + cross entropy at the last stage."""
        targets = self._targets.pop(subnet.subnet_id)
        logits = F.f32(final_output @ self.head)
        loss, dlogits = cross_entropy_with_logits(logits, targets)
        dfinal = F.f32(dlogits @ self.head.T)
        return loss, dfinal

    def backward_stage(
        self, activation: StageActivation, doutput: np.ndarray
    ) -> Tuple[np.ndarray, List[PendingUpdate]]:
        return self.program.backward(activation, doutput)

    def commit(self, updates: Sequence[PendingUpdate], time: float) -> None:
        self.program.commit_updates(updates, self.optimizer, time)

    # ------------------------------------------------------------------
    def digest(self, layers=None) -> str:
        return self.store.digest(layers)

    def save_checkpoint(self, params_path, optimizer_path=None) -> None:
        """Checkpoint weights (and optimizer velocity, when present).

        With both files restored, training resumes bit-exactly: the pair
        (parameters, velocity) is the complete mutable state of the
        functional plane (data and init are pure functions of the seed).
        """
        self.store.save(params_path)
        if optimizer_path is not None:
            velocity = getattr(self.optimizer, "_velocity", None)
            if velocity is not None:
                save_members(optimizer_path, velocity)

    def load_checkpoint(self, params_path, optimizer_path=None) -> None:
        self.store.load(params_path)
        if optimizer_path is not None:
            velocity = getattr(self.optimizer, "_velocity", None)
            if velocity is None:
                raise ValueError(
                    "optimizer has no velocity state to restore into"
                )
            for key, array in load_members(optimizer_path).items():
                velocity[key] = array.astype(np.float32, copy=False)

    def inference_forward(self, subnet: Subnet, features: np.ndarray) -> np.ndarray:
        """Un-logged forward of a whole subnet, returning logits.

        Uses the same block-residual structure as the training program so
        evaluation and training see the same function.
        """
        x = features
        for layer_id, impl in self.layer_refs(subnet, 0, subnet.num_blocks):
            params = self.store.materialize(layer_id)
            out, _cache = layer_forward(impl, x, params)
            x = x + self.program.RESIDUAL_SCALE * out if self.program.residual_blocks else out
        return F.f32(x @ self.head)

    def evaluate_subnet(
        self, subnet: Subnet, eval_batches: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> float:
        """Held-out mean loss of a candidate architecture (no WRITEs,
        no access logging — evaluation must not perturb the trace)."""
        was_recording = self.store.record_accesses
        self.store.record_accesses = False
        try:
            total = 0.0
            for features, targets in eval_batches:
                logits = self.inference_forward(subnet, features)
                loss, _dlogits = cross_entropy_with_logits(logits, targets)
                total += float(loss)
            return total / len(eval_batches)
        finally:
            self.store.record_accesses = was_recording
