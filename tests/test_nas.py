"""NAS layer tests: evaluator, evolution, random search, trainer, hybrid."""

import numpy as np
import pytest

from repro.baselines import naspipe
from repro.engines.functional_plane import FunctionalPlane
from repro.errors import ConfigError, SearchSpaceError
from repro.nas.evaluator import SubnetEvaluator, proxy_bleu, top_k_accuracy
from repro.nas.evolution import EvolutionSearch
from repro.nas.hybrid import HybridSupernet, hybrid_space, hybrid_stream
from repro.nas.random_search import RandomSearch
from repro.nas.trainer import SupernetTrainer
from repro.seeding import SeedSequenceTree
from repro.supernet.search_space import get_search_space
from repro.supernet.subnet import Subnet
from repro.supernet.supernet import Supernet


# ----------------------------------------------------------------------
# evaluator
# ----------------------------------------------------------------------
def test_proxy_bleu_monotone():
    assert proxy_bleu(1.0) > proxy_bleu(2.0) > proxy_bleu(3.0)
    assert proxy_bleu(2.5) == pytest.approx(100 * np.exp(-1.0))


def test_top_k_accuracy():
    logits = np.array(
        [[5.0, 4.0, 0.0, 0.0], [0.0, 1.0, 2.0, 3.0]], dtype=np.float32
    )
    targets = np.array([1, 0])
    assert top_k_accuracy(logits, targets, k=2) == pytest.approx(0.5)
    assert top_k_accuracy(logits, targets, k=4) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        top_k_accuracy(np.zeros(3, np.float32), targets)


def test_evaluator_scores_by_domain(tiny_supernet, cv_space):
    plane = FunctionalPlane(tiny_supernet, SeedSequenceTree(1), functional_batch=4)
    evaluator = SubnetEvaluator(plane, eval_batch_count=2, eval_batch_size=8)
    scored = evaluator.score(Subnet(0, tuple([0] * tiny_supernet.space.num_blocks)))
    assert scored.loss > 0
    assert scored.score == pytest.approx(proxy_bleu(scored.loss))

    cv_supernet = Supernet(cv_space)
    cv_plane = FunctionalPlane(cv_supernet, SeedSequenceTree(1), functional_batch=4)
    cv_eval = SubnetEvaluator(cv_plane, eval_batch_count=2, eval_batch_size=8)
    cv_scored = cv_eval.score(Subnet(0, tuple([0] * cv_space.num_blocks)))
    assert 0.0 <= cv_scored.score <= 100.0


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
def _evaluator(space):
    plane = FunctionalPlane(Supernet(space), SeedSequenceTree(1), functional_batch=4)
    return SubnetEvaluator(plane, eval_batch_count=2, eval_batch_size=8)


def test_evolution_deterministic(tiny_space):
    def run():
        search = EvolutionSearch(
            tiny_space, _evaluator(tiny_space), SeedSequenceTree(9),
            population_size=6, tournament_size=3,
        )
        return search.run(evaluations=14)

    a, b = run(), run()
    assert a.best_choices == b.best_choices
    assert a.best_score == b.best_score
    assert a.history == b.history


def test_evolution_history_monotone(tiny_space):
    outcome = EvolutionSearch(
        tiny_space, _evaluator(tiny_space), SeedSequenceTree(9),
        population_size=6, tournament_size=3,
    ).run(evaluations=14)
    assert outcome.evaluated == 14
    assert all(b >= a for a, b in zip(outcome.history, outcome.history[1:]))
    assert outcome.history[-1] == outcome.best_score


def test_evolution_validates_budget_and_tournament(tiny_space):
    with pytest.raises(ValueError):
        EvolutionSearch(
            tiny_space, _evaluator(tiny_space), SeedSequenceTree(9),
            population_size=4, tournament_size=5,
        )
    search = EvolutionSearch(
        tiny_space, _evaluator(tiny_space), SeedSequenceTree(9),
        population_size=6,
    )
    with pytest.raises(ValueError):
        search.run(evaluations=3)


def test_random_search_baseline(tiny_space):
    outcome = RandomSearch(
        tiny_space, _evaluator(tiny_space), SeedSequenceTree(9)
    ).run(evaluations=10)
    assert outcome.evaluated == 10
    assert len(outcome.history) == 10


# ----------------------------------------------------------------------
# trainer facade
# ----------------------------------------------------------------------
def test_trainer_end_to_end(small_space):
    trainer = SupernetTrainer(small_space, seed=4, num_gpus=4)
    run = trainer.train(naspipe(), steps=16, batch=32)
    assert run.result.subnets_completed == 16
    assert run.digest is not None
    assert run.final_loss is not None
    assert run.mean_tail_loss(4) is not None
    outcome = trainer.search(run, evaluations=10, population_size=6)
    assert outcome.best_score > 0


def test_trainer_accepts_space_name():
    trainer = SupernetTrainer("NLP.c3", seed=4)
    assert trainer.space.name == "NLP.c3"
    with pytest.raises(ValueError):
        SupernetTrainer("NLP.c3", stream_kind="chaotic")


def test_trainer_num_gpus_none_means_the_constructors_and_zero_is_an_error(
    small_space,
):
    trainer = SupernetTrainer(small_space, seed=4, num_gpus=4)
    run = trainer.train(naspipe(), steps=4, with_functional=False, num_gpus=None)
    assert run.result.num_gpus == 4
    run = trainer.train(naspipe(), steps=4, with_functional=False, num_gpus=2)
    assert run.result.num_gpus == 2
    # 0 used to fall back to the constructor's 4 GPUs and train quietly
    with pytest.raises(ConfigError, match="need at least 1 GPU, got 0"):
        trainer.train(naspipe(), steps=4, with_functional=False, num_gpus=0)


def test_trainer_streams_identical_across_systems(small_space):
    trainer = SupernetTrainer(small_space, seed=4)
    a = [s.choices for s in trainer.make_stream(6)]
    b = [s.choices for s in trainer.make_stream(6)]
    assert a == b


# ----------------------------------------------------------------------
# hybrid traversal (§5.5 future application)
# ----------------------------------------------------------------------
def test_hybrid_space_concatenates_choices():
    members = [get_search_space("NLP.c2"), get_search_space("NLP.c3")]
    union = hybrid_space(members)
    assert union.num_blocks == 48
    assert union.choices_per_block == 48 + 24
    assert "NLP.c2" in union.name and "NLP.c3" in union.name


def test_hybrid_space_rejects_mismatched_members():
    with pytest.raises(SearchSpaceError):
        hybrid_space([get_search_space("NLP.c2"), get_search_space("CV.c2")])
    with pytest.raises(SearchSpaceError):
        hybrid_space([])


def test_hybrid_supernet_delegates_profiles():
    members = [
        get_search_space("NLP.c2").scaled(num_blocks=8),
        get_search_space("NLP.c3").scaled(num_blocks=8),
    ]
    hybrid = HybridSupernet(members)
    direct = Supernet(members[1]).profile((0, 3))
    via_hybrid = hybrid.profile((0, members[0].choices_per_block + 3))
    assert via_hybrid.type_profile == direct.type_profile
    assert via_hybrid.size_scale == direct.size_scale


def test_hybrid_stream_no_cross_space_conflicts():
    members = [
        get_search_space("NLP.c2").scaled(num_blocks=8, functional_width=16),
        get_search_space("NLP.c3").scaled(num_blocks=8, functional_width=16),
    ]
    stream = hybrid_stream(members, SeedSequenceTree(2), count_per_member=4)
    assert len(stream) == 8
    offset = members[0].choices_per_block
    for subnet in stream:
        member_index = subnet.subnet_id % 2
        for choice in subnet.choices:
            if member_index == 0:
                assert choice < offset
            else:
                assert choice >= offset


def test_hybrid_pipeline_runs_under_csp():
    from repro.engines.pipeline import PipelineEngine
    from repro.sim.cluster import ClusterSpec

    members = [
        get_search_space("NLP.c2").scaled(num_blocks=8, functional_width=16),
        get_search_space("NLP.c3").scaled(num_blocks=8, functional_width=16),
    ]
    hybrid = HybridSupernet(members)
    stream = hybrid_stream(members, SeedSequenceTree(2), count_per_member=6)
    engine = PipelineEngine(
        hybrid, stream, naspipe(), ClusterSpec(num_gpus=4), batch=32
    )
    result = engine.run()
    assert result.subnets_completed == 12


def test_trainer_fair_stream(small_space):
    trainer = SupernetTrainer(small_space, seed=4, stream_kind="fair")
    subnets = list(trainer.make_stream(small_space.choices_per_block))
    # One strict-fairness round: every candidate of block 0 appears once.
    first_block = sorted(s.choices[0] for s in subnets)
    assert first_block == list(range(small_space.choices_per_block))
