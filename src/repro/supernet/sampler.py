"""Subnet stream generation: SPOS uniform sampling, producer/consumer.

The paper's exploration algorithms (SPOS [9] and peers) emit an *ordered*
list of subnets at runtime; the training backend consumes them through a
producer-consumer ``retrieve()`` (Algorithm 1, line 14).  This module
provides that producer side:

* :class:`SposSampler` — per-choice-block uniform sampling, "the most
  representative method used in existing supernet practices";
* :class:`SubnetStream` — a bounded, replayable, ordered stream facade the
  runtime pulls from; it also supports interleaving several spaces for the
  paper's §5.5 "hybrid traverse" future application.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.errors import ConfigError, SearchSpaceError
from repro.seeding import SeedSequenceTree
from repro.supernet.search_space import SearchSpace
from repro.supernet.subnet import Subnet

__all__ = [
    "SposSampler",
    "GenerationalSampler",
    "FairSampler",
    "SubnetStream",
    "STREAM_KINDS",
    "check_stream_kind",
]

#: the ``stream_kind`` values :meth:`SubnetStream.sample_kind` accepts
STREAM_KINDS = ("spos", "generational", "fair")


def check_stream_kind(kind: str) -> str:
    """``kind`` if it is one of :data:`STREAM_KINDS`, else a
    :class:`~repro.errors.ConfigError` (a config names it when read)."""
    if kind not in STREAM_KINDS:
        raise ConfigError(f"stream_kind must be one of {list(STREAM_KINDS)}, got {kind!r}")
    return kind


class SposSampler:
    """Uniform per-block sampler (SPOS).

    The sampler's randomness comes from a named seed stream, so the subnet
    sequence is a pure function of ``(root seed, space name)`` — a
    precondition for Definition 1's "same random seeds" clause.
    """

    def __init__(self, space: SearchSpace, seeds: SeedSequenceTree) -> None:
        self.space = space
        self._rng = seeds.fresh_generator(f"spos/{space.name}")
        self._next_id = 0

    def sample(self) -> Subnet:
        """Draw the next subnet in sequence."""
        choices = tuple(
            self._rng.integers(
                0, self.space.choices_per_block, size=self.space.num_blocks
            ).tolist()
        )
        subnet = Subnet(self._next_id, choices)
        self._next_id += 1
        return subnet

    def sample_many(self, count: int) -> List[Subnet]:
        return [self.sample() for _ in range(count)]


class GenerationalSampler:
    """Population-diverse sampling (evolutionary-search stream shape).

    The paper's default search strategy is evolution [29], which proposes
    a *generation* of candidates at a time.  Candidates within a
    generation explore different regions of the space, so chronologically
    close subnets rarely share layers — the very insight NASPipe's
    scheduler exploits ("the larger a supernet spans, the fewer
    dependencies manifest between chronologically close subnets").

    This sampler draws, per generation of size ``generation``, one fresh
    random permutation of candidates per choice block and deals each
    member a distinct choice — zero intra-generation conflicts, uniform
    marginal distribution, full conflict pressure across generations.
    Causal dependencies therefore still occur (and are still enforced);
    they just stop clustering between immediate neighbours.
    """

    def __init__(
        self,
        space: SearchSpace,
        seeds: SeedSequenceTree,
        generation: int = 8,
    ) -> None:
        if generation > space.choices_per_block:
            raise SearchSpaceError(
                f"generation {generation} exceeds {space.choices_per_block} "
                f"choices per block; members could not be distinct"
            )
        self.space = space
        self.generation = generation
        self._rng = seeds.fresh_generator(f"evolution/{space.name}")
        self._next_id = 0
        self._deck: List[List[int]] = []

    def _deal_generation(self) -> None:
        members: List[List[int]] = [[] for _ in range(self.generation)]
        for _block in range(self.space.num_blocks):
            permutation = self._rng.permutation(self.space.choices_per_block)
            for member, choice in zip(members, permutation.tolist()):
                member.append(choice)
        self._deck = members

    def sample(self) -> Subnet:
        if not self._deck:
            self._deal_generation()
        choices = self._deck.pop(0)
        subnet = Subnet(self._next_id, tuple(choices))
        self._next_id += 1
        return subnet

    def sample_many(self, count: int) -> List[Subnet]:
        return [self.sample() for _ in range(count)]


class FairSampler:
    """Strict-fairness sampling (FairNAS-style).

    Per *round* of ``n`` subnets (``n`` = choices per block), every block
    deals each of its candidates exactly once, in an independently
    shuffled order per block.  Over any window of ``k·n`` subnets every
    candidate layer is trained exactly ``k`` times — removing the
    sampling-frequency bias SPOS leaves in candidate quality estimates.

    From the scheduler's perspective this stream behaves like
    :class:`GenerationalSampler` with generation = n: zero conflicts
    within a round, uniform conflicts across rounds.
    """

    def __init__(self, space: SearchSpace, seeds: SeedSequenceTree) -> None:
        self.space = space
        self._rng = seeds.fresh_generator(f"fair/{space.name}")
        self._next_id = 0
        self._round: List[List[int]] = []

    def _deal_round(self) -> None:
        n = self.space.choices_per_block
        members: List[List[int]] = [[] for _ in range(n)]
        for _block in range(self.space.num_blocks):
            permutation = self._rng.permutation(n)
            for member, choice in zip(members, permutation.tolist()):
                member.append(choice)
        self._round = members

    def sample(self) -> Subnet:
        if not self._round:
            self._deal_round()
        subnet = Subnet(self._next_id, tuple(self._round.pop(0)))
        self._next_id += 1
        return subnet

    def sample_many(self, count: int) -> List[Subnet]:
        return [self.sample() for _ in range(count)]


class SubnetStream:
    """An ordered, finite subnet stream with producer-consumer access.

    The stream is materialised eagerly (subnet descriptors are tiny), which
    buys two properties the experiments need: the full order is known for
    the sequential ground-truth run, and any engine can replay the *same*
    stream — the whole point of reproducibility comparisons.
    """

    def __init__(self, subnets: Sequence[Subnet], start: int = 0) -> None:
        for position, subnet in enumerate(subnets):
            if subnet.subnet_id != start + position:
                raise SearchSpaceError(
                    f"stream position {position} holds subnet id "
                    f"{subnet.subnet_id}; ids must be dense and ordered "
                    f"from {start}"
                )
        self._subnets = list(subnets)
        self._base = start
        self._cursor = 0

    @classmethod
    def sample(
        cls, space: SearchSpace, seeds: SeedSequenceTree, count: int
    ) -> "SubnetStream":
        """Draw ``count`` subnets from a fresh SPOS sampler."""
        return cls(SposSampler(space, seeds).sample_many(count))

    @classmethod
    def sample_generational(
        cls,
        space: SearchSpace,
        seeds: SeedSequenceTree,
        count: int,
        generation: int = 8,
    ) -> "SubnetStream":
        """Draw ``count`` subnets from an evolution-style population
        sampler (diverse within each generation)."""
        sampler = GenerationalSampler(space, seeds, generation)
        return cls(sampler.sample_many(count))

    @classmethod
    def sample_kind(
        cls,
        kind: str,
        space: SearchSpace,
        seeds: SeedSequenceTree,
        count: int,
        generation: int = 8,
    ) -> "SubnetStream":
        """Draw ``count`` subnets from the sampler a config's
        ``stream_kind`` names — the one place that string is read, so an
        unknown kind is an error everywhere instead of a silent SPOS."""
        if kind == "spos":
            return cls.sample(space, seeds, count)
        if kind == "generational":
            return cls.sample_generational(space, seeds, count, generation)
        check_stream_kind(kind)
        return cls(FairSampler(space, seeds).sample_many(count))

    def __len__(self) -> int:
        return len(self._subnets)

    def __getitem__(self, subnet_id: int) -> Subnet:
        return self._subnets[subnet_id - self._base]

    def __iter__(self) -> Iterator[Subnet]:
        return iter(self._subnets)

    # producer-consumer face (Algorithm 1's retrieve())
    def retrieve(self) -> Optional[Subnet]:
        """Pop the next subnet, or None when the stream is exhausted."""
        if self._cursor >= len(self._subnets):
            return None
        subnet = self._subnets[self._cursor]
        self._cursor += 1
        return subnet

    def reset(self) -> None:
        """Rewind for replay by another engine."""
        self._cursor = 0

    @property
    def remaining(self) -> int:
        return len(self._subnets) - self._cursor

    @property
    def base(self) -> int:
        """First sequence ID in the stream — 0 for a fresh run, the
        resume cut for a recovery slice (ids are preserved across a
        restart so data batches and causal order replay bitwise)."""
        return self._base

