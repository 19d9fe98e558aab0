"""Synthetic WNMT-like and ImageNet-like batch generators.

Each domain builds a fixed (non-trainable) *encoder* from the seed tree:

* NLP: token IDs are drawn per batch, embedded by a frozen embedding
  table, and mean-pooled over a short sequence — a bag-of-words sentence
  encoding;
* CV: small pseudo-images are drawn and projected by a frozen patch
  projection — a linear patch embedding.

Targets are produced by a frozen *teacher* linear map over the encoded
features plus mild label noise, so the classification problem is
learnable (losses fall) yet fully deterministic in
``(root seed, space name, subnet_id)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.nn import functional as F
from repro.seeding import SeedSequenceTree
from repro.supernet.search_space import SearchSpace

__all__ = ["SyntheticTaskData"]

_VOCAB_SIZE = 512
_SEQ_LEN = 12
_IMAGE_PIXELS = 64
_LABEL_NOISE = 0.03


@dataclass(frozen=True)
class _Encoders:
    embedding: np.ndarray  # (vocab, width) or (pixels, width)
    teacher: np.ndarray  # (width, classes)


class SyntheticTaskData:
    """Deterministic batch source for one search space."""

    def __init__(self, space: SearchSpace, seeds: SeedSequenceTree) -> None:
        self.space = space
        self.seeds = seeds
        rng = seeds.fresh_generator(f"data/encoders/{space.name}")
        width = space.functional_width
        if space.domain == "NLP":
            embedding = rng.standard_normal((_VOCAB_SIZE, width))
        else:
            embedding = rng.standard_normal((_IMAGE_PIXELS, width))
        teacher = rng.standard_normal((width, space.num_classes))
        self._encoders = _Encoders(
            embedding=(embedding / np.sqrt(width)).astype(np.float32),
            teacher=teacher.astype(np.float32),
        )
        # frozen in fact, not only by name: planes of one job share them
        self._encoders.embedding.flags.writeable = False
        self._encoders.teacher.flags.writeable = False

    @property
    def teacher(self) -> np.ndarray:
        """The frozen feature→logit map that generated the labels."""
        return self._encoders.teacher

    # ------------------------------------------------------------------
    def _encode_nlp(self, rng: np.random.Generator, batch: int) -> np.ndarray:
        tokens = rng.integers(0, _VOCAB_SIZE, size=(batch, _SEQ_LEN))
        embedded = self._encoders.embedding[tokens]  # (batch, seq, width)
        return F.f32(embedded.mean(axis=1))

    def _encode_cv(self, rng: np.random.Generator, batch: int) -> np.ndarray:
        images = rng.standard_normal((batch, _IMAGE_PIXELS)).astype(np.float32)
        return F.f32(images @ self._encoders.embedding / np.sqrt(_IMAGE_PIXELS))

    def _make(self, stream: str, batch: int) -> Tuple[np.ndarray, np.ndarray]:
        rng = self.seeds.fresh_generator(stream)
        if self.space.domain == "NLP":
            features = self._encode_nlp(rng, batch)
        else:
            features = self._encode_cv(rng, batch)
        logits = features @ self._encoders.teacher
        noise = _LABEL_NOISE * rng.standard_normal(logits.shape).astype(np.float32)
        targets = np.argmax(logits + noise, axis=1).astype(np.int64)
        return features, targets

    # ------------------------------------------------------------------
    def batch(self, subnet_id: int, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The training batch for subnet ``subnet_id`` (pure function)."""
        return self._make(f"data/{self.space.name}/train/{subnet_id}", batch_size)

    def eval_batches(
        self, count: int, batch_size: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Held-out batches used by the search evaluator."""
        return [
            self._make(f"data/{self.space.name}/eval/{index}", batch_size)
            for index in range(count)
        ]

