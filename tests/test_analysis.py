"""Post-training usage data: the access log of a trained supernet."""

from collections import Counter

import pytest

from repro.baselines import naspipe
from repro.nas.trainer import SupernetTrainer
from repro.nn.parameter_store import AccessKind
from repro.supernet.search_space import get_search_space


@pytest.fixture(scope="module")
def trained():
    space = get_search_space("NLP.c3").scaled(
        name="analysis", num_blocks=8, choices_per_block=4,
        functional_width=16,
    )
    trainer = SupernetTrainer(space, seed=3, num_gpus=4)
    return space, trainer.train(naspipe(), steps=24, batch=32)


def test_update_counts_match_stream(trained):
    space, run = trained
    log = run.plane.store.access_log
    writes = [r for r in log if r.kind is AccessKind.WRITE]
    # Every subnet writes exactly one candidate per block.
    assert len(writes) == 24 * space.num_blocks
    # One forward READ per WRITE in this pipeline.
    assert sum(r.kind is AccessKind.READ for r in log) == len(writes)


def test_report_reproducible_across_cluster_sizes():
    """The analysis data itself is part of what reproducibility protects:
    identical per-layer update counts on different cluster sizes under
    CSP."""
    space = get_search_space("NLP.c3").scaled(
        name="analysis2", num_blocks=8, choices_per_block=4,
        functional_width=16,
    )
    reports = []
    for gpus in (2, 4):
        trainer = SupernetTrainer(space, seed=3, num_gpus=gpus)
        run = trainer.train(naspipe(), steps=20, batch=32)
        log = run.plane.store.access_log
        reports.append(Counter(r.layer for r in log if r.kind is AccessKind.WRITE))
    assert reports[0] == reports[1]


def test_peak_cache_bytes_reported(trained):
    _space, run = trained
    assert run.result.peak_cache_bytes is not None
    assert run.result.peak_cache_bytes > 0
