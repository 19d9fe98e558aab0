"""Search-space definitions: the paper's Table 1 registry plus helpers.

A :class:`SearchSpace` is pure configuration — block/choice counts, domain,
dataset name, batching constants.  The heavier :class:`~repro.supernet.
supernet.Supernet` object is built *from* a space.

The seven spaces evaluated in the paper:

=========  =============  ===========  ========
space      choice blocks  layers/block dataset
=========  =============  ===========  ========
NLP.c0     48             96           WNMT
NLP.c1     48             72           WNMT
NLP.c2     48             48           WNMT
NLP.c3     48             24           WNMT
CV.c1      32             48           ImageNet
CV.c2      32             24           ImageNet
CV.c3      32             12           ImageNet
=========  =============  ===========  ========
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import SearchSpaceError

__all__ = ["SearchSpace", "SEARCH_SPACES", "get_search_space", "list_search_spaces"]


@dataclass(frozen=True)
class SearchSpace:
    """Configuration of one supernet search space.

    ``reference_batch`` matches Table 5's profiling input (192 for NLP,
    64 for CV); ``max_batch`` is the algorithm-level cap the paper's
    systems train with (NASPipe reaches it, GPipe/PipeDream cannot).
    ``functional_width`` and ``num_classes`` size the numpy functional
    plane (small by design — the timing plane uses the profiled sizes).
    """

    name: str
    domain: str  # "NLP" or "CV"
    num_blocks: int
    choices_per_block: int
    dataset: str
    reference_batch: int
    max_batch: int
    batch_latency_floor: int  # b0 in the batch-time scaling law
    functional_width: int = 32
    num_classes: int = 32

    def __post_init__(self) -> None:
        if self.domain not in ("NLP", "CV"):
            raise SearchSpaceError(f"domain must be NLP or CV, got {self.domain!r}")
        for key in ("num_blocks", "choices_per_block"):
            if getattr(self, key) <= 0:
                raise SearchSpaceError(f"{key} must be >= 1, got {getattr(self, key)}")

    @property
    def num_candidate_layers(self) -> int:
        """Total candidate layers embedded in the supernet (m × n)."""
        return self.num_blocks * self.choices_per_block

    @property
    def architecture_count(self) -> int:
        """How many candidate DNNs the space embeds (n^m)."""
        return self.choices_per_block**self.num_blocks

    def validate_choices(self, choices) -> None:
        """Raise unless ``choices`` encodes a subnet of this space."""
        if len(choices) != self.num_blocks:
            raise SearchSpaceError(
                f"{self.name}: subnet must choose {self.num_blocks} layers, "
                f"got {len(choices)}"
            )
        for block, choice in enumerate(choices):
            if not 0 <= choice < self.choices_per_block:
                raise SearchSpaceError(
                    f"{self.name}: block {block} choice {choice} out of "
                    f"range [0, {self.choices_per_block})"
                )

    def scaled(self, **overrides) -> "SearchSpace":
        """A copy with some fields overridden (for scaled-down tests)."""
        from dataclasses import replace

        return replace(self, **overrides)


def _nlp_space(name: str, choices: int) -> SearchSpace:
    return SearchSpace(
        name=name,
        domain="NLP",
        num_blocks=48,
        choices_per_block=choices,
        dataset="WNMT",
        reference_batch=192,
        max_batch=192,
        batch_latency_floor=115,
    )


def _cv_space(name: str, choices: int) -> SearchSpace:
    return SearchSpace(
        name=name,
        domain="CV",
        num_blocks=32,
        choices_per_block=choices,
        dataset="ImageNet",
        reference_batch=64,
        max_batch=64,
        batch_latency_floor=81,
    )


SEARCH_SPACES: Dict[str, SearchSpace] = {
    space.name: space
    for space in (
        _nlp_space("NLP.c0", 96),
        _nlp_space("NLP.c1", 72),
        _nlp_space("NLP.c2", 48),
        _nlp_space("NLP.c3", 24),
        _cv_space("CV.c1", 48),
        _cv_space("CV.c2", 24),
        _cv_space("CV.c3", 12),
    )
}


def get_search_space(name: str) -> SearchSpace:
    """Look up a Table 1 space by name (e.g. ``"NLP.c1"``)."""
    try:
        return SEARCH_SPACES[name]
    except KeyError:
        raise SearchSpaceError(
            f"unknown search space {name!r}; known: {sorted(SEARCH_SPACES)}"
        ) from None


def list_search_spaces() -> List[str]:
    """All registered space names, NLP first then CV (paper order)."""
    return ["NLP.c0", "NLP.c1", "NLP.c2", "NLP.c3", "CV.c1", "CV.c2", "CV.c3"]
