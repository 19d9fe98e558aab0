"""Versioned, access-logged storage for supernet parameters.

The store is the single source of truth for every candidate layer's
weights.  All reads and writes go through :meth:`ParameterStore.read` and
:meth:`ParameterStore.write`, which:

* log an :class:`AccessRecord` (subnet id, READ/WRITE, virtual time) — the
  trace behind the paper's Table 4 ("access & update order of a layer");
* bump a per-layer version counter, letting the CSP runtime verify that a
  read really observed the expected predecessor's write.

Bitwise reproducibility (paper Definition 1) is checked with
:meth:`ParameterStore.digest`, a SHA-256 over every float32 weight buffer in
a canonical order.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SearchSpaceError

__all__ = [
    "AccessKind",
    "AccessRecord",
    "ParameterStore",
    "LayerId",
    "intern_layers",
    "member_name",
    "parse_member",
    "save_members",
    "load_members",
    "digest_params",
]

#: A layer is identified by (choice block index, candidate index) — the
#: paper's l_x^i notation.
LayerId = Tuple[int, int]

#: canonical instance per (block, choice) pair — see :func:`intern_layers`
_LAYER_INTERN: Dict[LayerId, LayerId] = {}


def intern_layers(layers: Sequence[LayerId]) -> Tuple[LayerId, ...]:
    """Canonicalise layer ids so equal pairs share one tuple object.

    Layer ids are the hot dict/set keys of the whole system — the
    dependency tracker's edge maps, the context manager's residency
    table, the parameter store itself.  Sharing one object per distinct
    id makes the equality step of every hash probe an identity hit and
    bounds tuple churn at the search space's (blocks × choices) size.
    One C-level map over the sequence, with no frame per id.
    """
    return tuple(map(_LAYER_INTERN.setdefault, layers, layers))


# ----------------------------------------------------------------------
# the on-disk format: every ``.npz`` this repo writes (a store's
# parameters, an optimizer's velocity, both files of a checkpoint cut)
# names its members here and nowhere else
# ----------------------------------------------------------------------
def member_name(layer: LayerId, name: str) -> str:
    """``b<block>_c<choice>/<name>`` — layer identity and parameter name,
    so a file is self-describing and restorable into a fresh store."""
    return f"b{layer[0]}_c{layer[1]}/{name}"


def parse_member(key: str) -> Tuple[LayerId, str]:
    """Inverse of :func:`member_name`."""
    prefix, name = key.split("/", 1)
    block, choice = prefix[1:].split("_c")
    return (int(block), int(choice)), name


def save_members(path, arrays: Mapping[Tuple[LayerId, str], np.ndarray]) -> None:
    """Write a ``(layer, name) -> array`` map as one compressed ``.npz``,
    members in the map's order."""
    np.savez_compressed(
        path, **{member_name(*key): array for key, array in arrays.items()}
    )


def load_members(path) -> Dict[Tuple[LayerId, str], np.ndarray]:
    """Read back what :func:`save_members` wrote, in file order."""
    with np.load(path) as payload:
        return {parse_member(key): payload[key] for key in payload.files}


def digest_params(
    params: Mapping[LayerId, Mapping[str, np.ndarray]],
    layers: Optional[Iterable[LayerId]] = None,
) -> str:
    """SHA-256 hex digest over a ``{layer: {name: array}}`` map in
    canonical (sorted) order, optionally restricted to ``layers`` (those
    absent from ``params`` are skipped).  A live store and a checkpoint
    cut digest through here, so the two are directly comparable."""
    hasher = hashlib.sha256()
    for layer in sorted(params if layers is None else layers):
        layer_params = params.get(layer)
        if layer_params is None:
            continue
        hasher.update(repr(layer).encode())
        for name in sorted(layer_params):
            hasher.update(name.encode())
            hasher.update(np.ascontiguousarray(layer_params[name]).tobytes())
    return hasher.hexdigest()


class AccessKind(enum.Enum):
    """Whether a parameter access was a forward READ or a backward WRITE."""

    READ = "R"
    WRITE = "W"


@dataclass(frozen=True)
class AccessRecord:
    """One logged parameter access.

    ``time`` is virtual simulation time when the access was committed; it is
    informational — ordering in the log list is the authoritative order.
    """

    layer: LayerId
    subnet_id: int
    kind: AccessKind
    time: float = 0.0

    def short(self) -> str:
        """Render like the paper's Table 4 cells, e.g. ``2F`` / ``2B``."""
        suffix = "F" if self.kind is AccessKind.READ else "B"
        return f"{self.subnet_id}{suffix}"


class ParameterStore:
    """Holds every candidate layer's parameter arrays.

    Parameters are created lazily by a factory callback so that only layers
    that are ever touched get materialised (a supernet can embed tens of
    thousands of candidates).  Creation is deterministic per layer id, so
    lazy materialisation cannot affect reproducibility.
    """

    def __init__(
        self,
        factory: Callable[[LayerId], Dict[str, np.ndarray]],
        record_accesses: bool = True,
    ) -> None:
        self._factory = factory
        self._params: Dict[LayerId, Dict[str, np.ndarray]] = {}
        self._versions: Dict[LayerId, int] = {}
        self.record_accesses = record_accesses
        self.access_log: List[AccessRecord] = []

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def materialize(self, layer: LayerId) -> Dict[str, np.ndarray]:
        """Ensure ``layer``'s parameters exist and return them (no logging)."""
        if layer not in self._params:
            params = self._factory(layer)
            for name, array in params.items():
                if array.dtype != np.float32:
                    raise SearchSpaceError(
                        f"layer {layer} parameter {name!r} must be float32, "
                        f"got {array.dtype}"
                    )
            self._params[layer] = params
            self._versions[layer] = 0
        return self._params[layer]

    def __contains__(self, layer: LayerId) -> bool:
        return layer in self._params

    def __len__(self) -> int:
        return len(self._params)

    @property
    def materialized_layers(self) -> List[LayerId]:
        return sorted(self._params)

    # ------------------------------------------------------------------
    # logged access
    # ------------------------------------------------------------------
    def read(
        self, layer: LayerId, subnet_id: int, time: float = 0.0
    ) -> Dict[str, np.ndarray]:
        """Return a *snapshot* (copy) of ``layer``'s parameters.

        A copy models what a forward pass observes: later in-place updates
        by other subnets must not leak into an already-running computation
        (this is PyTorch's behaviour once tensors are on-GPU for a kernel).
        """
        params = self.materialize(layer)
        if self.record_accesses:
            self.access_log.append(
                AccessRecord(layer, subnet_id, AccessKind.READ, time)
            )
        return {name: array.copy() for name, array in params.items()}

    def write(
        self,
        layer: LayerId,
        subnet_id: int,
        new_values: Mapping[str, np.ndarray],
        time: float = 0.0,
    ) -> None:
        """Replace ``layer``'s parameters (the optimizer-step WRITE)."""
        params = self.materialize(layer)
        if set(new_values) != set(params):
            raise SearchSpaceError(
                f"write to layer {layer} with mismatched parameter names: "
                f"{sorted(new_values)} != {sorted(params)}"
            )
        for name, array in new_values.items():
            params[name][...] = array  # assignment casts to float32
        self._versions[layer] += 1
        if self.record_accesses:
            self.access_log.append(
                AccessRecord(layer, subnet_id, AccessKind.WRITE, time)
            )

    def version(self, layer: LayerId) -> int:
        """How many writes ``layer`` has received (0 if never written)."""
        return self._versions.get(layer, 0)

    # ------------------------------------------------------------------
    # reproducibility helpers
    # ------------------------------------------------------------------
    def digest(self, layers: Optional[Iterable[LayerId]] = None) -> str:
        """SHA-256 hex digest over parameters, canonical layer order.

        Two training runs are bitwise reproducible (Definition 1) iff their
        digests match.  Restricting ``layers`` lets tests compare only the
        layers a probe stream touched.
        """
        return digest_params(self._params, layers)

    def access_order(self, layer: LayerId) -> List[AccessRecord]:
        """The logged access sequence for one layer (Table 4 raw data)."""
        return [record for record in self.access_log if record.layer == layer]

    def access_order_string(self, layer: LayerId) -> str:
        """Table-4-style rendering, e.g. ``"2F-2B-5F-5B-7F-7B"``."""
        return "-".join(record.short() for record in self.access_order(layer))

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def save(self, path) -> int:
        """Checkpoint all materialised parameters to an ``.npz`` file.

        Returns the number of layers saved; members are named by
        :func:`member_name`.
        """
        save_members(
            path,
            {
                (layer, name): array
                for layer, params in self._params.items()
                for name, array in params.items()
            },
        )
        return len(self._params)

    def load(self, path) -> int:
        """Restore a checkpoint produced by :meth:`save`.

        Layers present in the file are materialised (factory-initialised
        first, to validate shapes) and overwritten bitwise; versions are
        bumped so downstream consumers see the weights changed.  Returns
        the number of layers restored.
        """
        grouped: Dict[LayerId, Dict[str, np.ndarray]] = {}
        for (layer, name), array in load_members(path).items():
            grouped.setdefault(layer, {})[name] = array
        for layer, params in grouped.items():
            current = self.materialize(layer)
            if set(params) != set(current):
                raise SearchSpaceError(
                    f"checkpoint layer {layer} has parameters "
                    f"{sorted(params)}, store expects {sorted(current)}"
                )
            for name, array in params.items():
                if array.shape != current[name].shape:
                    raise SearchSpaceError(
                        f"checkpoint {layer}/{name} shape {array.shape} != "
                        f"store shape {current[name].shape}"
                    )
                current[name][...] = array.astype(np.float32, copy=False)
            self._versions[layer] += 1
        return len(grouped)
