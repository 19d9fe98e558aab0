"""Reproducibility verification (paper Definition 1, Tables 3 & 4).

Tools to compare training runs bit-for-bit:

* :func:`compare_digests` — are two runs' final weights identical?
* :func:`verify_csp_equivalence` — assert a pipeline run reproduced the
  sequential ground truth (digest *and* per-subnet losses);
* :class:`ReproducibilityReport` — the cross-cluster-size matrix the
  paper's Table 3 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproducibilityError

__all__ = [
    "compare_digests",
    "verify_csp_equivalence",
    "ReproducibilityReport",
]


def compare_digests(digest_a: Optional[str], digest_b: Optional[str]) -> bool:
    """True iff both digests exist and are identical.

    Provenance: paper Definition 1 ("bitwise equal final weights").
    Digests are SHA-256 over the parameter store in canonical layer
    order, so equality means equal to the last float32 mantissa bit.
    """
    return digest_a is not None and digest_a == digest_b


def verify_csp_equivalence(sequential_result, pipeline_result) -> None:
    """Raise :class:`ReproducibilityError` unless the pipeline run is
    bitwise equivalent to the sequential ground truth.

    Provenance: Definition 1 plus Theorem 1's consequence that a CSP
    schedule reproduces sequential execution exactly — checked on both
    the final-weight digest and every per-subnet float32 loss.
    """
    if not compare_digests(sequential_result.digest, pipeline_result.digest):
        raise ReproducibilityError(
            f"digest mismatch: sequential {sequential_result.digest} vs "
            f"pipeline {pipeline_result.digest}"
        )
    for subnet_id, loss in sequential_result.losses.items():
        pipeline_loss = pipeline_result.losses.get(subnet_id)
        if pipeline_loss != loss:
            raise ReproducibilityError(
                f"loss mismatch for subnet {subnet_id}: "
                f"sequential {loss!r} vs pipeline {pipeline_loss!r}"
            )


@dataclass
class ReproducibilityReport:
    """Losses/scores per (system, gpu count) — the paper's Table 3 cells
    (§5.2): final float32 training loss, proxy score (BLEU stand-in) and
    SHA-256 weight digest for every cluster size a system ran on."""

    space: str
    losses: Dict[Tuple[str, int], float] = field(default_factory=dict)
    scores: Dict[Tuple[str, int], float] = field(default_factory=dict)
    digests: Dict[Tuple[str, int], str] = field(default_factory=dict)

    def record(
        self,
        system: str,
        gpus: int,
        loss: float,
        score: float,
        digest: str,
    ) -> None:
        key = (system, gpus)
        self.losses[key] = loss
        self.scores[key] = score
        self.digests[key] = digest

    def is_reproducible(self, system: str) -> bool:
        """True iff every recorded cluster size produced identical bits."""
        digests = [
            digest for (name, _gpus), digest in sorted(self.digests.items())
            if name == system
        ]
        return len(digests) > 0 and len(set(digests)) == 1

    def gpu_counts(self, system: str) -> List[int]:
        return sorted(gpus for (name, gpus) in self.losses if name == system)

    def row(self, system: str) -> str:
        cells = []
        for gpus in self.gpu_counts(system):
            cells.append(f"{self.losses[(system, gpus)]:.4f}")
        for gpus in self.gpu_counts(system):
            cells.append(f"{self.scores[(system, gpus)]:.2f}")
        verdict = "reproducible" if self.is_reproducible(system) else "DIVERGENT"
        return f"{system:>10s} | " + " ".join(cells) + f" | {verdict}"
