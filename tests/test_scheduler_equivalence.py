"""Readiness index ≡ scan oracle, property-fuzzed (differential tests).

The incremental readiness index is an optimisation over rescanning the
queue against the per-layer user lists, never a semantic change.  The
rescan lives here as :class:`scheduler_reference.ScanOracle`.  Three
layers of evidence:

1. decision-level: index scheduler and oracle driven over the same
   randomized stream emit the identical ``(qidx, qval)`` sequence;
2. structural: under random register/index/release/finish interleavings,
   the index's ready set always equals the brute-force recomputation
   from :meth:`DependencyTracker.is_clear`;
3. end-to-end: full pipeline runs with the oracle injected as
   ``engine.policy.scheduler`` and with the stock scheduler
   produce the identical event sequence and the identical
   final-parameter digest through the functional plane.

The engine-level tests must build both runs from the *same* space name —
the name seeds sampling and initialisation, so differing names would
compare different streams, not different schedulers.
"""

from random import Random

from hypothesis import given, settings, strategies as st

from repro.baselines import naspipe
from repro.core.dependency import DependencyTracker
from repro.core.scheduler import CspScheduler
from repro.engines.functional_plane import FunctionalPlane
from repro.engines.pipeline import PipelineEngine
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.subnet import Subnet
from repro.supernet.supernet import Supernet

from scheduler_reference import ScanOracle, drive_scheduler_stream

SCOPE = 0


# ----------------------------------------------------------------------
# 1. decision-level differential over synthetic streams
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_subnets=st.integers(5, 80),
    queue_cap=st.integers(2, 12),
    inflight_cap=st.integers(1, 5),
    chained=st.booleans(),
)
def test_index_and_scan_make_identical_decisions(
    seed, num_subnets, queue_cap, inflight_cap, chained
):
    oracle, index = ScanOracle(), CspScheduler()
    decisions = [
        drive_scheduler_stream(
            scheduler,
            num_subnets,
            queue_cap=queue_cap,
            inflight_cap=inflight_cap,
            seed=seed,
            chained=chained,
        )
        for scheduler in (oracle, index)
    ]
    assert decisions[0] == decisions[1]
    assert oracle.calls == index.calls == len(decisions[0])


# ----------------------------------------------------------------------
# 2. structural: ready set == brute-force recomputation, any interleaving
# ----------------------------------------------------------------------
def _assert_ready_set_exact(tracker, layers_of):
    ready = set(tracker.ready_ids(SCOPE))
    expected = {
        sid
        for sid in tracker.indexed_ids(SCOPE)
        if tracker.is_clear(sid, layers_of[sid])
    }
    assert ready == expected


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_subnets=st.integers(3, 24),
    num_blocks=st.integers(2, 8),
    num_choices=st.integers(2, 5),
)
def test_ready_set_matches_brute_force_under_random_ops(
    seed, num_subnets, num_blocks, num_choices
):
    rng = Random(seed)
    subnets = [
        Subnet(i, tuple(rng.randrange(num_choices) for _ in range(num_blocks)))
        for i in range(num_subnets)
    ]
    slice_stop = max(1, num_blocks // 2)
    layers_of = {
        s.subnet_id: s.layers_in_range(0, slice_stop) for s in subnets
    }

    tracker = DependencyTracker()
    registered = []
    indexed = set()
    released = []
    for _ in range(num_subnets * 4):
        op = rng.randrange(4)
        if op == 0 and len(registered) < num_subnets:
            subnet = subnets[len(registered)]
            tracker.register(subnet)
            registered.append(subnet.subnet_id)
        elif op == 1 and registered:
            # Index a random registered subnet (re-adds are allowed).
            sid = rng.choice(registered)
            tracker.index_add(SCOPE, sid, layers_of[sid])
            indexed.add(sid)
        elif op == 2 and indexed and rng.random() < 0.5:
            sid = rng.choice(sorted(indexed))
            tracker.index_discard(SCOPE, sid)
            indexed.discard(sid)
        elif registered:
            # Release or finish a random subnet not yet finished.
            pending = [s for s in registered if s not in released]
            if not pending:
                continue
            sid = rng.choice(pending)
            if rng.random() < 0.5:
                tracker.release_layers(sid, subnets[sid].layer_ids())
            else:
                tracker.mark_finished(sid)
                released.append(sid)
        if tracker.has_scope(SCOPE):
            _assert_ready_set_exact(tracker, layers_of)


# ----------------------------------------------------------------------
# 3. end-to-end: identical events and identical parameter digests
# ----------------------------------------------------------------------
_TASK_KINDS = ("task_dispatch", "task_done", "subnet_complete")


def _run(scheduler, seed: int, gpus: int):
    # Identical space *name* across runs: the name seeds sampling, so a
    # differing name would compare different streams (false divergence).
    space = get_search_space("NLP.c3").scaled(
        name=f"equiv-{seed}", num_blocks=12, functional_width=16
    )
    supernet = Supernet(space)
    seeds = SeedSequenceTree(seed)
    stream = SubnetStream.sample(space, seeds, 12)
    plane = FunctionalPlane(supernet, seeds, functional_batch=6)
    events = []
    engine = PipelineEngine(
        supernet,
        stream,
        naspipe(),
        ClusterSpec(num_gpus=gpus),
        batch=32,
        functional=plane,
    )
    if scheduler is not None:
        engine.policy.scheduler = scheduler
    engine.trace.listeners.append(
        lambda event: event.kind in _TASK_KINDS and events.append(event)
    )
    result = engine.run()
    return result, events


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**16 - 1),
    gpus=st.sampled_from([2, 4]),
)
def test_pipeline_digest_identical_across_modes(seed, gpus):
    oracle = ScanOracle()
    scan_result, scan_events = _run(oracle, seed, gpus)
    index_result, index_events = _run(None, seed, gpus)
    assert oracle.scans > 0 and scan_result.scheduler_ready_pops == 0
    assert index_result.scheduler_ready_pops > 0
    assert scan_events == index_events
    assert scan_result.digest == index_result.digest
    assert scan_result.trace.makespan == index_result.trace.makespan

