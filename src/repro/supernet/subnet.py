"""Subnet: one sampled architecture and its dependency helpers.

A subnet is the paper's unit of work: an ``m``-sized list of layer choices,
one per choice block, trained on one batch.  Two subnets are *causally
dependent* iff they chose the same candidate in at least one block; the
later one must then wait for the earlier one's WRITE on every shared layer
(Definition 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.nn.parameter_store import LayerId, intern_layers

__all__ = ["Subnet"]


@dataclass(frozen=True)
class Subnet:
    """An immutable sampled subnet.

    ``subnet_id`` is the sequence ID assigned by the exploration
    algorithm — the total order CSP must be equivalent to.

    Layer-id views (:meth:`layer_ids`, :meth:`layers_in_range`) are
    computed once, interned through
    :func:`repro.nn.parameter_store.intern_layers` and cached on the
    instance — they are consulted on every scheduler decision and cache
    probe, and immutability makes memoisation free.  They return tuples;
    callers must not rely on list identity.
    """

    subnet_id: int
    choices: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.subnet_id < 0:
            raise ValueError(f"subnet_id must be >= 0, got {self.subnet_id}")

    @property
    def num_blocks(self) -> int:
        return len(self.choices)

    def layer_ids(self) -> Tuple[LayerId, ...]:
        """The (block, choice) identity of every activated layer."""
        cached = self.__dict__.get("_layer_ids")
        if cached is None:
            cached = intern_layers(tuple(enumerate(self.choices)))
            object.__setattr__(self, "_layer_ids", cached)
        return cached

    def layers_in_range(self, start: int, stop: int) -> Tuple[LayerId, ...]:
        """Layers of blocks ``[start, stop)`` — one pipeline stage's slice."""
        ranges: Dict[Tuple[int, int], Tuple[LayerId, ...]] = self.__dict__.get(
            "_range_cache"
        )
        if ranges is None:
            ranges = {}
            object.__setattr__(self, "_range_cache", ranges)
        cached = ranges.get((start, stop))
        if cached is None:
            layers = self.layer_ids()
            cached = layers[max(start, 0) : max(stop, 0)]
            ranges[(start, stop)] = cached
        return cached

    def mutate(self, block: int, new_choice: int) -> "Subnet":
        """A copy with one block's choice replaced (evolutionary search)."""
        if not 0 <= block < len(self.choices):
            raise IndexError(f"block {block} out of range")
        choices = list(self.choices)
        choices[block] = new_choice
        return Subnet(self.subnet_id, tuple(choices))

    def with_id(self, subnet_id: int) -> "Subnet":
        """A copy re-numbered with a new sequence ID."""
        return Subnet(subnet_id, self.choices)

    # ------------------------------------------------------------------
    # serialisation (architecture exchange format)
    # ------------------------------------------------------------------
    def encode(self) -> str:
        """Compact text encoding, e.g. ``"3:1-0-2-2"`` (id:choices)."""
        return f"{self.subnet_id}:" + "-".join(str(c) for c in self.choices)

    @classmethod
    def decode(cls, text: str) -> "Subnet":
        """Inverse of :meth:`encode`."""
        try:
            id_part, choices_part = text.split(":", 1)
            choices = tuple(int(c) for c in choices_part.split("-"))
            return cls(int(id_part), choices)
        except (ValueError, IndexError) as error:
            raise ValueError(f"malformed subnet encoding {text!r}") from error

    def __str__(self) -> str:
        body = ",".join(str(c) for c in self.choices[:8])
        suffix = ",..." if len(self.choices) > 8 else ""
        return f"SN{self.subnet_id}[{body}{suffix}]"
