"""Loss functions for the functional training plane."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn import functional as F

__all__ = ["cross_entropy_with_logits"]


def cross_entropy_with_logits(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[np.float32, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. ``logits``.

    ``targets`` holds integer class indices of shape ``(batch,)``.  The
    gradient is already divided by the batch size, so callers can feed it
    straight into the backward chain.
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (batch, classes), got {logits.shape}")
    batch = logits.shape[0]
    probs = F.softmax_rows(logits)
    picked = probs[np.arange(batch), targets]
    # The clip guards log(0) for a catastrophically confident wrong model.
    loss = np.float32(-np.log(np.clip(picked, 1e-12, None)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(batch), targets] -= 1.0
    dlogits = F.f32(dlogits / np.float32(batch))
    return loss, dlogits
