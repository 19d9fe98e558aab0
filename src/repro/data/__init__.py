"""Deterministic synthetic datasets.

The paper trains on WNMT (translation) and ImageNet; neither is available
offline, and the scheduler/reproducibility claims only require that each
subnet's batch is a deterministic function of (seed, subnet sequence ID).
These generators produce domain-flavoured feature batches with learnable
structure, so training losses genuinely decrease and search scores can
rank subnets.
"""

from repro.data.synthetic import SyntheticTaskData, batch_for_subnet
from repro.data.vocab import Vocabulary, synthetic_vocabulary

__all__ = [
    "SyntheticTaskData",
    "batch_for_subnet",
    "Vocabulary",
    "synthetic_vocabulary",
]
