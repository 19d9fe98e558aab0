"""Context predictor (Algorithm 3) tests."""

from random import Random

from hypothesis import given, settings, strategies as st

from repro.core.dependency import DependencyTracker
from repro.core.predictor import ContextPredictor
from repro.core.task import TaskKind
from repro.supernet.subnet import Subnet

STAGE = 0


def _env(rows, queue, lo=0, hi=None):
    """Register ``rows`` as subnets 0..n and index ``queue``'s stage
    slices under the predictor's stage scope, as the CSP policy does."""
    subnets = {i: Subnet(i, tuple(row)) for i, row in enumerate(rows)}
    hi = hi if hi is not None else len(rows[0])
    tracker = DependencyTracker()
    for subnet in subnets.values():
        tracker.register(subnet)
    for subnet_id in queue:
        tracker.index_add(STAGE, subnet_id, subnets[subnet_id].layers_in_range(lo, hi))
    return subnets, tracker, ContextPredictor(STAGE, depth=2)


def _blocked_backwards(predictor):
    """The backward hints a predictor holds (L_blocked), in arrival order."""
    return list(predictor._blocked)


def test_backward_prediction_assumes_release():
    # Subnet 1 shares with 0; a backward of 0 should predict 1's forward.
    _subnets, tracker, predictor = _env([(4, 4), (4, 4)], queue=[1])
    predictions = predictor.predict_on_backward(0, tracker)
    assert [p.task.subnet_id for p in predictions] == [1]
    assert predictions[0].task.kind is TaskKind.FORWARD
    assert predictions[0].reason == "after-backward"


def test_backward_prediction_depth_chains():
    # 0 blocks 1 blocks 2 on the same layer; after 0's backward the
    # depth-2 forecast optimistically predicts both 1 and 2.
    _subnets, tracker, predictor = _env([(4,), (4,), (4,)], queue=[1, 2])
    predictions = predictor.predict_on_backward(0, tracker)
    assert [p.task.subnet_id for p in predictions] == [1, 2]


def test_forward_prediction_skips_current_and_releases_pending():
    _subnets, tracker, predictor = _env([(1,), (2,), (3,)], queue=[2])
    # Record a pending backward hint for subnet 1, then announce subnet
    # 1's forward: the pending backward must be predicted for prefetch.
    predictor.predict_on_backward(0, tracker, pending_backward_hints=[1])
    predictions = predictor.predict_on_forward(1, tracker)
    kinds = {(p.task.subnet_id, p.task.kind) for p in predictions}
    assert (1, TaskKind.BACKWARD) in kinds
    assert (2, TaskKind.FORWARD) in kinds
    # The hint is consumed.
    assert _blocked_backwards(predictor) == []


def test_forward_prediction_keeps_unrelated_hints():
    _subnets, tracker, predictor = _env([(1,), (2,), (3,)], queue=[2])
    predictor.predict_on_backward(0, tracker, pending_backward_hints=[2])
    predictor.predict_on_forward(1, tracker)
    assert _blocked_backwards(predictor) == [2]


def test_own_backward_drops_its_hint_and_order_is_kept():
    _subnets, tracker, predictor = _env([(1,), (2,), (3,), (4,)], queue=[3])
    predictor.predict_on_backward(0, tracker, pending_backward_hints=[2, 0, 1])
    assert _blocked_backwards(predictor) == [2, 1]
    predictor.predict_on_backward(2, tracker, pending_backward_hints=[1, 2])
    assert _blocked_backwards(predictor) == [1]


def test_no_prediction_when_everything_blocked():
    _subnets, tracker, predictor = _env([(4,), (4,), (4,)], queue=[1, 2])
    # Nothing released yet: forward after subnet 2's hypothetical
    # schedule must not predict blocked subnets.
    predictions = predictor.predict_on_forward(0, tracker)
    assert [p.task.subnet_id for p in predictions] == []


def test_prediction_counter_increments():
    _subnets, tracker, predictor = _env([(1,), (2,)], queue=[1])
    predictor.predict_on_backward(0, tracker)
    predictor.predict_on_forward(0, tracker)
    assert predictor.predictions_made == 2


# ----------------------------------------------------------------------
# chain differential: overlay lookahead == brute-force user-list walk
# ----------------------------------------------------------------------
def _chain_reference(tracker, queue, layers_of, assumed, skip, depth):
    """Algorithm 3's lookahead spelled out: rescan the queue ``depth``
    times against the per-layer unreleased-user lists, treating
    ``assumed`` (and each pick) as released."""
    assumed, skip, picks = set(assumed), set(skip), []
    for _ in range(depth):
        for qval in queue:
            if qval not in skip and all(
                user in assumed
                for layer in layers_of[qval]
                for user in tracker.unreleased_users(layer)
                if user < qval
            ):
                picks.append(qval)
                skip.add(qval)
                assumed.add(qval)
                break
        else:
            break
    return picks


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_subnets=st.integers(3, 20),
    num_blocks=st.integers(2, 6),
    depth=st.integers(1, 4),
)
def test_overlay_chain_matches_brute_force(seed, num_subnets, num_blocks, depth):
    rng = Random(seed)
    subnets = [
        Subnet(i, tuple(rng.randrange(3) for _ in range(num_blocks)))
        for i in range(num_subnets)
    ]
    slice_stop = max(1, num_blocks // 2)
    layers_of = {s.subnet_id: s.layers_in_range(0, slice_stop) for s in subnets}
    tracker = DependencyTracker()
    for subnet in subnets:
        tracker.register(subnet)
    queue = sorted(rng.sample(range(num_subnets), rng.randrange(1, num_subnets)))
    for sid in queue:
        tracker.index_add(STAGE, sid, layers_of[sid])
    predictor = ContextPredictor(STAGE, depth=depth)
    running = [sid for sid in range(num_subnets) if sid not in queue]
    rng.shuffle(running)
    for sid in running:
        # random release/finish interleaving, a forecast after each step
        if rng.random() < 0.5:
            tracker.release_layers(sid, rng.sample(subnets[sid].layer_ids(), 1))
        else:
            tracker.mark_finished(sid)
        on_backward = predictor.predict_on_backward(sid, tracker)
        assert [p.task.subnet_id for p in on_backward] == _chain_reference(
            tracker, queue, layers_of, {sid}, (), depth
        )
        launched = rng.choice(queue)
        on_forward = predictor.predict_on_forward(launched, tracker)
        assert [p.task.subnet_id for p in on_forward] == _chain_reference(
            tracker, queue, layers_of, (), {launched}, depth
        )


# ----------------------------------------------------------------------
# engine wiring: L_blocked stays bounded by the in-flight window
# ----------------------------------------------------------------------
def test_blocked_backwards_bounded_by_inflight_window():
    """Every busy subnet is hinted on each backward; before a subnet's
    own backward dropped its hint, each stage's list ended at the stream
    length (192) and the membership test was O(stream) per hint."""
    from repro.baselines import naspipe
    from repro.engines.pipeline import PipelineEngine
    from repro.seeding import SeedSequenceTree
    from repro.sim.cluster import ClusterSpec
    from repro.supernet.sampler import SubnetStream
    from repro.supernet.search_space import get_search_space
    from repro.supernet.supernet import Supernet

    space = get_search_space("NLP.c3")
    stream = SubnetStream.sample(space, SeedSequenceTree(2022), 192)
    engine = PipelineEngine(
        Supernet(space), stream, naspipe(), ClusterSpec(num_gpus=8), batch=192
    )
    policy = engine.policy
    peak = 0
    before_task = policy.before_task

    def watched(stage, subnet_id, is_backward):
        nonlocal peak
        before_task(stage, subnet_id, is_backward)
        peak = max(peak, len(_blocked_backwards(policy._predictors[stage])))

    policy.before_task = watched
    result = engine.run()
    assert result.subnets_completed == 192
    assert 0 < peak <= policy.effective_window()
    assert all(_blocked_backwards(p) == [] for p in policy._predictors)
