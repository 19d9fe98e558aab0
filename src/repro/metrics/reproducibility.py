"""The paper's Table 3 matrix: training outcomes per (system, GPU count).

:class:`ReproducibilityReport` holds the cells of Table 3 (§5.2); the
Definition-1 comparison of two runs is :func:`repro.invariants.same_training`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["ReproducibilityReport"]


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
