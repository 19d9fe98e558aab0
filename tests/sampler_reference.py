"""The samplers' draws as they were before they converted each drawn
array with ``.tolist()``.

``SposSampler.sample``, ``GenerationalSampler._deal_generation`` and
``FairSampler._deal_round`` of that time, copied verbatim (each choice
went through ``int()``), on subclasses of the live samplers, so
``tests/test_sampler.py`` can demand the same stream by ``repr``.
``validate_choices`` is the rule a drawn choice vector must meet.
"""

from __future__ import annotations

from typing import List

from repro.errors import SearchSpaceError
from repro.supernet.sampler import FairSampler, GenerationalSampler, SposSampler
from repro.supernet.subnet import Subnet

__all__ = ["ReferenceFair", "ReferenceGenerational", "ReferenceSpos", "validate_choices"]


def validate_choices(space, choices) -> None:
    """Raise unless ``choices`` encodes a subnet of ``space``."""
    if len(choices) != space.num_blocks:
        raise SearchSpaceError(
            f"{space.name}: subnet must choose {space.num_blocks} layers, "
            f"got {len(choices)}"
        )
    for block, choice in enumerate(choices):
        if not 0 <= choice < space.choices_per_block:
            raise SearchSpaceError(
                f"{space.name}: block {block} choice {choice} out of "
                f"range [0, {space.choices_per_block})"
            )


class ReferenceSpos(SposSampler):
    def sample(self) -> Subnet:
        """Draw the next subnet in sequence."""
        choices = tuple(
            int(c)
            for c in self._rng.integers(
                0, self.space.choices_per_block, size=self.space.num_blocks
            )
        )
        subnet = Subnet(self._next_id, choices)
        self._next_id += 1
        return subnet


class ReferenceGenerational(GenerationalSampler):
    def _deal_generation(self) -> None:
        members: List[List[int]] = [[] for _ in range(self.generation)]
        for _block in range(self.space.num_blocks):
            permutation = self._rng.permutation(self.space.choices_per_block)
            for member, choice in zip(members, permutation):
                member.append(int(choice))
        self._deck = members


class ReferenceFair(FairSampler):
    def _deal_round(self) -> None:
        n = self.space.choices_per_block
        members: List[List[int]] = [[] for _ in range(n)]
        for _block in range(self.space.num_blocks):
            permutation = self._rng.permutation(n)
            for member, choice in zip(members, permutation):
                member.append(int(choice))
        self._round = members
