"""Synthetic data generator tests."""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticTaskData
from repro.engines.functional_plane import SeededInputs
from repro.seeding import SeedSequenceTree
from repro.supernet.search_space import get_search_space


@pytest.fixture(params=["NLP.c3", "CV.c3"])
def space(request):
    return get_search_space(request.param).scaled(functional_width=16)


def test_batch_shapes_and_dtypes(space):
    data = SyntheticTaskData(space, SeedSequenceTree(1))
    features, targets = data.batch(subnet_id=0, batch_size=12)
    assert features.shape == (12, 16)
    assert features.dtype == np.float32
    assert targets.shape == (12,)
    assert targets.dtype == np.int64
    assert (0 <= targets).all() and (targets < space.num_classes).all()


def test_batches_deterministic_per_subnet_id(space):
    a = SyntheticTaskData(space, SeedSequenceTree(1)).batch(5, 8)
    b = SyntheticTaskData(space, SeedSequenceTree(1)).batch(5, 8)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_different_subnets_get_different_batches(space):
    data = SyntheticTaskData(space, SeedSequenceTree(1))
    a = data.batch(0, 8)
    b = data.batch(1, 8)
    assert not np.array_equal(a[0], b[0])


def test_eval_batches_disjoint_from_train(space):
    data = SyntheticTaskData(space, SeedSequenceTree(1))
    train = data.batch(0, 8)[0]
    evals = data.eval_batches(3, 8)
    assert len(evals) == 3
    for features, _targets in evals:
        assert not np.array_equal(features, train)


def test_labels_are_learnable_signal(space):
    """The teacher must make labels predictable from features — a linear
    readout on the raw features should beat chance comfortably."""
    data = SyntheticTaskData(space, SeedSequenceTree(1))
    features, targets = data.batch(0, 512)
    logits = features @ data.teacher
    accuracy = (np.argmax(logits, axis=1) == targets).mean()
    assert accuracy > 0.75  # label noise keeps it below 1.0


def test_seeded_inputs_batch(space):
    """A job's training batch comes from its seeded inputs: the same
    bytes the data source draws, drawn once, read-only."""
    inputs = SeededInputs(space, SeedSequenceTree(1), 4)
    features, targets = inputs.batch(0)
    assert features.shape[0] == 4
    expected = SyntheticTaskData(space, SeedSequenceTree(1)).batch(0, 4)
    assert features.tobytes() == expected[0].tobytes()
    assert targets.tobytes() == expected[1].tobytes()
    assert inputs.batch(0)[0] is features
    with pytest.raises(ValueError):
        features[0, 0] = 1.0
