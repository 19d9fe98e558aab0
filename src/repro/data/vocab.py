"""Vocabulary and deterministic tokenizer for the WNMT-like data path.

The NLP generators in :mod:`repro.data.synthetic` draw token IDs
directly; this module adds the text-shaped layer a translation workload
implies — a fixed vocabulary, a whitespace tokenizer with OOV handling,
padding/truncation to a sequence length — so examples and downstream
users can feed real sentences through the same deterministic pipeline.

The vocabulary itself is synthesised from a seed (a Zipf-ish ranking of
generated word shapes), so the whole path stays network-free and
bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np

from repro.seeding import SeedSequenceTree

__all__ = ["Vocabulary", "synthetic_vocabulary"]

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
_SPECIALS = (PAD_TOKEN, UNK_TOKEN, BOS_TOKEN, EOS_TOKEN)

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


@dataclass
class Vocabulary:
    """A fixed token↔id mapping with encode/decode helpers."""

    tokens: List[str]

    def __post_init__(self) -> None:
        if list(self.tokens[: len(_SPECIALS)]) != list(_SPECIALS):
            raise ValueError(
                f"vocabulary must start with the special tokens {_SPECIALS}"
            )
        self._index: Dict[str, int] = {
            token: position for position, token in enumerate(self.tokens)
        }
        if len(self._index) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def pad_id(self) -> int:
        return self._index[PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self._index[UNK_TOKEN]

    @property
    def bos_id(self) -> int:
        return self._index[BOS_TOKEN]

    @property
    def eos_id(self) -> int:
        return self._index[EOS_TOKEN]

    def id_of(self, token: str) -> int:
        return self._index.get(token, self.unk_id)

    # ------------------------------------------------------------------
    def encode(
        self,
        text: str,
        seq_len: int,
        add_markers: bool = True,
    ) -> np.ndarray:
        """Whitespace-tokenize, map to ids, pad/truncate to ``seq_len``."""
        words = text.strip().lower().split()
        ids: List[int] = []
        if add_markers:
            ids.append(self.bos_id)
        ids.extend(self.id_of(word) for word in words)
        if add_markers:
            ids.append(self.eos_id)
        ids = ids[:seq_len]
        ids.extend([self.pad_id] * (seq_len - len(ids)))
        return np.asarray(ids, dtype=np.int64)

    def decode(self, ids: Iterable[int], strip_special: bool = True) -> str:
        words = []
        for token_id in ids:
            token = self.tokens[int(token_id)]
            if strip_special and token in _SPECIALS:
                continue
            words.append(token)
        return " ".join(words)


def _make_word(rng: np.random.Generator, syllables: int) -> str:
    parts = []
    for _ in range(syllables):
        parts.append(_CONSONANTS[int(rng.integers(0, len(_CONSONANTS)))])
        parts.append(_VOWELS[int(rng.integers(0, len(_VOWELS)))])
    return "".join(parts)


def synthetic_vocabulary(
    seeds: SeedSequenceTree, size: int = 512
) -> Vocabulary:
    """A deterministic pseudo-language vocabulary of ``size`` tokens.

    Word lengths follow a short-word-heavy distribution (frequent words
    are short, like real corpora); collisions are resolved by extending
    the word, so the vocabulary is exactly ``size`` distinct tokens.
    """
    if size <= len(_SPECIALS):
        raise ValueError(f"vocabulary size must exceed {len(_SPECIALS)}")
    rng = seeds.fresh_generator("vocab")
    tokens: List[str] = list(_SPECIALS)
    seen = set(tokens)
    while len(tokens) < size:
        rank_fraction = len(tokens) / size
        syllables = 1 + int(rank_fraction * 3) + int(rng.integers(0, 2))
        word = _make_word(rng, syllables)
        while word in seen:
            word += _make_word(rng, 1)
        seen.add(word)
        tokens.append(word)
    return Vocabulary(tokens)
