"""Candidate evaluation: held-out loss, top-k accuracy, proxy BLEU.

The paper scores searched DNNs with BLEU (NLP) and top-5 accuracy (CV).
On the synthetic substrate:

* **top-k accuracy** is computed for real — forward the candidate on
  held-out batches and check whether the target is among the k largest
  logits;
* **proxy BLEU** is a fixed monotone map from held-out cross-entropy to a
  BLEU-scaled number (``100·exp(−loss/2.5)``), calibrated so converged
  losses land in the paper's 19-22 BLEU band.  It preserves exactly what
  the experiments need: identical losses ⇒ identical scores (bitwise
  reproducibility propagates to reported scores) and lower loss ⇒ higher
  score (rankings are meaningful).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.engines.functional_plane import FunctionalPlane
from repro.supernet.subnet import Subnet

__all__ = ["proxy_bleu", "top_k_accuracy", "SubnetEvaluator"]


def proxy_bleu(loss: float) -> float:
    """Monotone proxy mapping held-out loss to a BLEU-scaled score."""
    return float(100.0 * np.exp(-loss / 2.5))


def top_k_accuracy(logits: np.ndarray, targets: np.ndarray, k: int = 5) -> float:
    """Fraction of rows whose target is among the top-k logits."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    top_k = np.argpartition(-logits, kth=min(k, logits.shape[1] - 1), axis=1)[:, :k]
    hits = (top_k == targets[:, None]).any(axis=1)
    return float(hits.mean())


@dataclass
class EvaluatedSubnet:
    subnet: Subnet
    loss: float
    score: float


class SubnetEvaluator:
    """Scores candidate subnets against a trained functional plane."""

    def __init__(
        self,
        plane: FunctionalPlane,
        eval_batch_count: int = 4,
        eval_batch_size: int = 16,
        top_k: int = 5,
    ) -> None:
        self.plane = plane
        self.domain = plane.space.domain
        self.top_k = top_k
        self._batches = plane.data.eval_batches(eval_batch_count, eval_batch_size)

    # ------------------------------------------------------------------
    def held_out_loss(self, subnet: Subnet) -> float:
        return self.plane.evaluate_subnet(subnet, self._batches)

    def _accuracy(self, subnet: Subnet) -> float:
        correct = 0.0
        total = 0
        for features, targets in self._batches:
            logits = self.plane.inference_forward(subnet, features)
            correct += top_k_accuracy(logits, targets, self.top_k) * len(targets)
            total += len(targets)
        return correct / total

    def score(self, subnet: Subnet) -> EvaluatedSubnet:
        """Domain-appropriate quality: proxy BLEU (NLP), top-5 % (CV)."""
        loss = self.held_out_loss(subnet)
        if self.domain == "NLP":
            quality = proxy_bleu(loss)
        else:
            quality = 100.0 * self._accuracy(subnet)
        return EvaluatedSubnet(subnet=subnet, loss=loss, score=quality)
