"""The dependency tracker against its copy from before it kept one record.

``tests/dependency_reference.py`` keeps the tracker as it was when it
also held every registered user per layer, a released-layer set per
subnet and per-layer watchers for late registration.  One drawn op
stream drives both: registration in ascending order with gaps (after
the ids below an optional resume cut are taken), ``index_add`` / ``index_discard`` on two
scopes, repeated and partial ``release_layers``, ``mark_finished`` out of
completion order, owner polls clearing ``dirty_scopes``, and overlay
``assume_released`` / ``first_clear``.  After every op each query the
tracker still answers must answer as the reference does (the frontier
and the per-subnet lifecycle queries left with the scan that read them).
"""

from hypothesis import given, settings, strategies as st

from dependency_reference import DependencyTracker as ReferenceTracker
from repro.core.dependency import DependencyTracker
from repro.supernet.subnet import Subnet

_BLOCKS, _CHOICES = 4, 3
_SCOPES = (0, 1)
#: each scope tracks one half of a subnet's blocks, as a stage would
_SLICES = {0: (0, 2), 1: (2, _BLOCKS)}

_PICK = st.integers(0, 2**16)
_OP = st.one_of(
    st.tuples(
        st.just("register"),
        st.integers(1, 3),
        st.tuples(*[st.integers(0, _CHOICES - 1)] * _BLOCKS),
    ),
    st.tuples(st.just("index_add"), _PICK, st.sampled_from(_SCOPES)),
    st.tuples(st.just("index_discard"), _PICK, st.sampled_from(_SCOPES)),
    st.tuples(st.just("release"), _PICK, st.sampled_from(_SCOPES), st.booleans()),
    st.tuples(st.just("finish"), _PICK),
    st.tuples(st.just("poll"), st.sampled_from(_SCOPES)),
    st.tuples(
        st.just("overlay"), st.sampled_from(_SCOPES), st.lists(_PICK, max_size=4)
    ),
)


def _slice(subnet, scope):
    return subnet.layers_in_range(*_SLICES[scope])


def _answers(tracker, subnets, indexed):
    """Every query the tracker answers on the current state."""
    answers = [sorted(tracker.dirty_scopes)]
    # each layer's lowest unreleased user, as any later subnet sees it
    later = max(subnets, default=0) + 1
    for block in range(_BLOCKS):
        for choice in range(_CHOICES):
            answers.append(tracker.blocking_user(later, [(block, choice)]))
    for scope in _SCOPES:
        answers.append(
            (
                tracker.has_scope(scope),
                tracker.indexed_ids(scope),
                tracker.ready_ids(scope),
                tracker.ready_count(scope),
                tracker.first_ready(scope),
            )
        )
        for sid in indexed[scope]:
            layers = _slice(subnets[sid], scope)
            answers.append(
                (tracker.blocking_user(sid, layers), tracker.is_clear(sid, layers))
            )
    return answers


def _overlay_answers(tracker, scope, assumed, indexed):
    overlay = tracker.overlay(scope)
    answers = []
    for sid in assumed:
        overlay.assume_released(sid)
        answers.append(overlay.first_clear())
    answers.append([overlay.is_clear(sid) for sid in sorted(indexed[scope])])
    answers.append(overlay.first_clear(skip=set(sorted(indexed[scope])[:1])))
    return answers


@settings(max_examples=300, deadline=None)
@given(base=st.one_of(st.none(), st.integers(1, 5)), ops=st.lists(_OP, max_size=60))
def test_tracker_answers_as_the_reference_on_in_order_streams(base, ops):
    trackers = (DependencyTracker(), ReferenceTracker())
    if base is not None:
        trackers[0].reserve_ids_below(base)
        trackers[1].reset_frontier(base)
    next_id = base or 0
    subnets, unfinished = {}, []
    indexed = {scope: set() for scope in _SCOPES}

    for op, *args in ops:
        results = []
        if op == "register":
            gap, choices = args
            subnet = Subnet(next_id + gap - 1, choices)
            next_id = subnet.subnet_id + 1
            subnets[subnet.subnet_id] = subnet
            unfinished.append(subnet.subnet_id)
            for tracker in trackers:
                tracker.register(subnet)
        elif op in ("index_add", "release", "finish") and unfinished:
            sid = unfinished[args[0] % len(unfinished)]
            if op == "index_add":
                scope = args[1]
                indexed[scope].add(sid)
                for tracker in trackers:
                    tracker.index_add(scope, sid, _slice(subnets[sid], scope))
            elif op == "release":
                layers = _slice(subnets[sid], args[1])
                if args[2]:
                    layers = layers[: len(layers) // 2]  # a partial release
                for tracker in trackers:
                    tracker.release_layers(sid, layers)
            else:
                unfinished.remove(sid)
                for tracker in trackers:
                    tracker.mark_finished(sid)
        elif op == "index_discard" and subnets:
            scope = args[1]
            sid = sorted(subnets)[args[0] % len(subnets)]
            indexed[scope].discard(sid)
            for tracker in trackers:
                tracker.index_discard(scope, sid)
        elif op == "poll":
            for tracker in trackers:
                tracker.dirty_scopes.discard(args[0])
                results.append(tracker.ready_ids(args[0]))
        elif op == "overlay" and indexed[args[0]]:
            scope, picks = args
            assumed = [sorted(subnets)[pick % len(subnets)] for pick in picks]
            for tracker in trackers:
                results.append(_overlay_answers(tracker, scope, assumed, indexed))
        for tracker in trackers:
            results.append(_answers(tracker, subnets, indexed))
        live, reference = results[::2], results[1::2]
        assert live == reference, (op, args)

