"""Pipeline engine behaviour: completion, determinism, policy windows,
stall accounting, per-system invariants."""

import gc
import json
import re
from bisect import insort
from pathlib import Path

import pytest

from repro.baselines import gpipe, naspipe, pipedream, ssp, vpipe
from repro.engines.pipeline import PipelineEngine
from repro.errors import ConfigError, DeadlockError, PartitionError, SchedulingError
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.sim.trace import TraceEvent
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet


def _run(supernet, config, count=24, gpus=4, batch=32, seed=11, stream=None):
    stream = stream or SubnetStream.sample(
        supernet.space, SeedSequenceTree(seed), count
    )
    engine = PipelineEngine(
        supernet, stream, config, ClusterSpec(num_gpus=gpus), batch=batch
    )
    return engine.run()


@pytest.mark.parametrize(
    "config_factory", [naspipe, gpipe, pipedream, vpipe, lambda: ssp(4)]
)
def test_all_systems_complete_the_stream(tiny_supernet, config_factory):
    result = _run(tiny_supernet, config_factory())
    assert result.subnets_completed == 24
    assert result.makespan_ms > 0
    assert 0.0 <= result.bubble_ratio <= 1.0


@pytest.mark.parametrize("batch", [0, -8, 2.5, 32.0, True, False, "32"])
def test_a_batch_that_is_not_a_positive_integer_is_a_config_error(batch):
    """``batch=0`` used to run at 0.0 samples/s, ``-8`` died in the clock
    with a ``ValueError``, and ``2.5`` and ``True`` ran."""
    space = get_search_space("NLP.c3")
    stream = SubnetStream.sample(space, SeedSequenceTree(2022), 8)
    with pytest.raises(ConfigError, match="batch"):
        PipelineEngine(
            Supernet(space), stream, naspipe(), ClusterSpec(num_gpus=4), batch=batch
        )


def test_timing_runs_are_deterministic(tiny_supernet):
    a = _run(tiny_supernet, naspipe())
    b = _run(tiny_supernet, naspipe())
    assert a.makespan_ms == b.makespan_ms
    assert a.trace.gantt_rows() == b.trace.gantt_rows()


def test_historic_fingerprint_matches_committed_baseline(attrs_census):
    """The one end-to-end point with a recorded history (NLP.c2 x 96
    subnets x 8 GPUs, seed 2022): makespan, simulator events and trace
    events must equal ``benchmarks/scheduler_baseline.json`` bitwise —
    any drift is a determinism violation, never a perf delta.  Effort is
    bounded, not pinned: the useful pops are exact, and the scheduler is
    asked at most twice per task (the broadcast kick it replaced asked
    6.9 times: 10,623 calls for 1,536 tasks), so later work may lower
    the count but polling every stage on every completion cannot
    silently come back.  Likewise the run may leave few objects for the
    cyclic collector to re-walk — far fewer than one per event, and the
    counter kinds hold one attrs tuple per distinct value, not per row."""
    baseline = Path(__file__).resolve().parent.parent / "benchmarks" / "scheduler_baseline.json"
    pinned = json.loads(baseline.read_text())["engine"]
    row = next(r for r in pinned["rows"] if r["workload"] == "pipeline")
    space = get_search_space(pinned["space"])
    engine = PipelineEngine(
        Supernet(space),
        SubnetStream.sample(space, SeedSequenceTree(pinned["seed"]), pinned["subnets"]),
        naspipe(),
        ClusterSpec(num_gpus=pinned["num_gpus"]),
        batch=pinned["batch"],
    )
    gc.collect()
    tracked = len(gc.get_objects())
    result = engine.run()
    gc.collect()
    alive = gc.get_objects()
    observed = (result.makespan_ms, engine.sim.events_processed, len(engine.trace.events))
    committed = (row["makespan_ms"], row["events"], row["trace_events"])
    assert observed == committed == (19334.02542782906, 2976, 39019)
    tasks = sum(1 for interval in engine.trace.intervals if interval.kind != "stall")
    assert tasks == 2 * pinned["subnets"] * pinned["num_gpus"] == 1536
    assert result.scheduler_ready_pops == 768
    assert result.scheduler_calls <= 2 * tasks
    # the trace is columns: no event is a resident object the collector
    # re-walks (one row per event would add 39,019 tracked objects)
    assert not any(type(obj) is TraceEvent for obj in alive)
    assert len(alive) - tracked < 0.25 * len(engine.trace.events)
    for kind in ("queue_depth", "ready_set", "cache_access"):
        rows, objects, values = attrs_census(engine.trace, kind)
        assert objects <= values < rows, kind


@pytest.mark.parametrize(
    "mode, makespan_ms, hit_rate",
    [("index", 53515.19241642031, 0.9719509548611112)],
)
def test_completed_subnets_leave_per_stage_state(mode, makespan_ms, hit_rate):
    """§3.2's elimination keeps state flat over long streams: the
    engine's ``started`` set and the dependency tracker hold in-flight
    subnets only — never the stream (NLP.c3 x 192 x 8 GPUs; the pinned
    results are the ones the unpruned engine gave)."""
    space = get_search_space("NLP.c3")
    engine = PipelineEngine(
        Supernet(space),
        SubnetStream.sample(space, SeedSequenceTree(2022), 192),
        naspipe(),
        ClusterSpec(num_gpus=8),
        batch=32,
    )
    held = []

    def sample(event):
        if event.kind == "subnet_complete":
            held.append(
                max(len(engine.started), len(engine.policy.tracker._subnets))
            )

    engine.trace.listeners.append(sample)
    result = engine.run()
    assert len(held) == 192
    assert max(held) <= engine.policy.window + engine.policy.QUEUE_CAP
    assert not engine.started
    assert not engine.policy.tracker._subnets
    assert (result.makespan_ms, result.cache_hit_rate) == (makespan_ms, hit_rate)


def test_a_blocked_proposal_is_a_scheduling_error(small_supernet):
    """§3.1's safety check stays in front of every forward: when the
    readiness index proposes a queued subnet that is still blocked (here
    it forgets each entry's blocking edges as it indexes it), the policy
    names the stage, the subnet and the blocking (user, layer) edge
    instead of running it or falling through to another candidate."""
    engine = PipelineEngine(
        small_supernet,
        SubnetStream.sample(small_supernet.space, SeedSequenceTree(11), 24),
        naspipe(),
        ClusterSpec(num_gpus=4),
        batch=32,
    )
    tracker = engine.policy.tracker
    index_add = tracker.index_add
    lost = []

    def index_add_losing_edges(scope, subnet_id, layers):
        index_add(scope, subnet_id, layers)
        entry = tracker._scopes[scope]
        if entry.blocked[subnet_id]:
            lost.append(subnet_id)
            tracker.index_discard(scope, subnet_id)
            entry.layers[subnet_id] = list(layers)
            entry.blocked[subnet_id] = set()
            insort(entry.ready, subnet_id)

    tracker.index_add = index_add_losing_edges
    with pytest.raises(SchedulingError) as raised:
        engine.run()
    found = re.fullmatch(
        r"stage (\d+): the readiness index proposed subnet (\d+), still "
        r"blocked by subnet (\d+) on layer \((\d+), (\d+)\)",
        str(raised.value),
    )
    assert found, str(raised.value)
    stage, subnet_id, user, block, choice = map(int, found.groups())
    assert subnet_id in lost and subnet_id in engine.stage_states[stage].queue
    assert (block, choice) in engine.stage_layers(subnet_id, stage)
    assert user < subnet_id
    assert tracker.unreleased_users((block, choice))[0] == user
    assert engine.subnet_of(user).choices[block] == choice


def _silent_wakes_engine(supernet, dump=True):
    # seed 3: a stream on which arrivals and own completions alone do
    # not happen to poll every stage that gains work
    stream = SubnetStream.sample(supernet.space, SeedSequenceTree(3), 24)
    engine = PipelineEngine(
        supernet, stream, naspipe(), ClusterSpec(num_gpus=4), batch=32
    )
    engine.policy.wakes = lambda: ()  # a wake set that forgets everybody
    if not dump:
        engine._blocked_edges_dump = dict
    return engine


def test_missed_wake_names_itself(tiny_supernet):
    """Premature quiescence from a wrong wake set must not read as a
    causal wedge: the dump names the forward each un-polled stage could
    have run, and asking leaves the dead run's record untouched."""
    engine = _silent_wakes_engine(tiny_supernet)
    with pytest.raises(DeadlockError) as caught:
        engine.run()
    unwoken = {
        stage: dump["runnable"]
        for stage, dump in caught.value.blocked.items()
        if dump["runnable"] is not None
    }
    assert unwoken
    for stage, subnet_id in unwoken.items():
        assert subnet_id in engine.stage_states[stage].queue
        assert (
            f"stage {stage} had runnable work but was never woken — wake-set bug"
            in str(caught.value)
        )
    # the same dead run, never asked
    unasked = _silent_wakes_engine(tiny_supernet, dump=False)
    with pytest.raises(DeadlockError):
        unasked.run()
    assert engine.trace.events == unasked.trace.events
    assert vars(engine.policy.scheduler) == vars(unasked.policy.scheduler)


def test_single_gpu_pipeline_degenerates_to_sequential(tiny_supernet):
    result = _run(tiny_supernet, naspipe(), gpus=1, count=6)
    rows = result.trace.gantt_rows()
    # Strict alternation fwd/bwd per subnet, in sequence order.
    kinds = [(row[3], row[4]) for row in rows]
    expected = []
    for sid in range(6):
        expected.extend([("fwd", sid), ("bwd", sid)])
    assert [k for k in kinds if k[0] != "stall"] == expected


def test_too_few_blocks_for_stages_raises():
    space_supernet = Supernet(
        __import__("repro.supernet.search_space", fromlist=["get_search_space"])
        .get_search_space("NLP.c3")
        .scaled(num_blocks=4)
    )
    stream = SubnetStream.sample(space_supernet.space, SeedSequenceTree(0), 2)
    with pytest.raises(PartitionError):
        PipelineEngine(space_supernet, stream, naspipe(), ClusterSpec(num_gpus=8))


def test_bsp_flushes_once_per_bulk(tiny_supernet):
    config = gpipe(bulk_size=4)
    stream = SubnetStream.sample(tiny_supernet.space, SeedSequenceTree(1), 12)
    engine = PipelineEngine(
        tiny_supernet, stream, config, ClusterSpec(num_gpus=4), batch=32
    )
    engine.run()
    assert engine.policy.flushes == 3


def test_bsp_partial_final_bulk_completes(tiny_supernet):
    config = gpipe(bulk_size=5)
    result = _run(tiny_supernet, config, count=7)
    assert result.subnets_completed == 7


def test_asp_window_limits_inflight(tiny_supernet):
    stream = SubnetStream.sample(tiny_supernet.space, SeedSequenceTree(1), 16)
    engine = PipelineEngine(
        tiny_supernet, stream, pipedream(), ClusterSpec(num_gpus=4), batch=32
    )
    max_seen = 0
    original = engine._try_inject

    def spying_inject():
        nonlocal max_seen
        original()
        max_seen = max(max_seen, len(engine.inflight))

    engine._try_inject = spying_inject
    engine.run()
    assert max_seen <= pipedream().default_window(4)


def test_ssp_staleness_zero_serialises(tiny_supernet):
    strict = _run(tiny_supernet, ssp(0), count=10)
    loose = _run(tiny_supernet, ssp(8), count=10)
    assert strict.makespan_ms >= loose.makespan_ms


def test_naspipe_cache_hit_reported(tiny_supernet):
    result = _run(tiny_supernet, naspipe())
    assert result.cache_hit_rate is not None
    assert 0.0 <= result.cache_hit_rate <= 1.0


def test_full_context_systems_report_no_cache(tiny_supernet):
    result = _run(tiny_supernet, gpipe())
    assert result.cache_hit_rate is None


def test_vpipe_small_cache_hit_rate_below_naspipe(small_supernet):
    naspipe_result = _run(small_supernet, naspipe(), count=40, gpus=8)
    vpipe_result = _run(small_supernet, vpipe(), count=40, gpus=8)
    assert vpipe_result.cache_hit_rate < naspipe_result.cache_hit_rate


def test_mirroring_traffic_accounted(small_supernet):
    result = _run(small_supernet, naspipe(), count=16, gpus=4)
    assert result.mirror_push_bytes >= 0
    no_mirror = _run(small_supernet, naspipe(
        name="x", mirroring=False, partitioning="static"
    ), count=16, gpus=4)
    assert no_mirror.mirror_push_bytes == 0


def test_in_order_ablation_slower_than_full(small_supernet):
    stream_seed = 3
    full = _run(small_supernet, naspipe(), count=40, gpus=8, seed=stream_seed)
    from repro.baselines import naspipe_wo_scheduler

    in_order = _run(
        small_supernet, naspipe_wo_scheduler(), count=40, gpus=8, seed=stream_seed
    )
    assert in_order.makespan_ms >= full.makespan_ms


def test_batch_defaults_from_memory_model():
    supernet = Supernet(
        __import__("repro.supernet.search_space", fromlist=["get_search_space"])
        .get_search_space("NLP.c1")
    )
    stream = SubnetStream.sample(supernet.space, SeedSequenceTree(0), 4)
    engine = PipelineEngine(supernet, stream, naspipe(), ClusterSpec(num_gpus=8))
    assert engine.batch == supernet.space.max_batch


def test_throughput_and_exec_metrics_positive(tiny_supernet):
    result = _run(tiny_supernet, naspipe())
    assert result.throughput_samples_per_sec > 0
    assert result.mean_exec_ms > 0
    assert result.total_alu > 0


def test_oom_retry_path(small_supernet):
    """An undersized context cache triggers the simulated CUDA-OOM
    catch/reclaim/re-execute path (paper §4.2) without deadlocking."""
    config = naspipe(cache_subnets=0.2)  # far too small on purpose
    result = _run(small_supernet, config, count=20, gpus=4)
    assert result.subnets_completed == 20
    assert result.oom_retries > 0


def test_no_oom_retries_at_normal_cache(small_supernet):
    result = _run(small_supernet, naspipe(), count=20, gpus=4)
    assert result.oom_retries == 0


def test_migrate_mode_slower_than_mirroring(small_supernet):
    """§2.3: on-demand operator migration 'inevitably incurs high
    initialization and synchronization costs'; mirroring eliminates them
    from the critical path."""
    mirror = _run(small_supernet, naspipe(mirror_mode="mirror"),
                  count=40, gpus=8, batch=192)
    engine_stream = SubnetStream.sample(
        small_supernet.space, SeedSequenceTree(11), 40
    )
    migrate_engine = PipelineEngine(
        small_supernet, engine_stream, naspipe(mirror_mode="migrate"),
        ClusterSpec(num_gpus=8), batch=192,
    )
    migrate = migrate_engine.run()
    assert migrate_engine.migration_count > 0
    assert migrate_engine.migration_ms_total > 0
    assert migrate.makespan_ms > mirror.makespan_ms
    # Migrate mode creates no replicas, hence no push traffic.
    assert migrate.mirror_push_bytes == 0


def test_mirror_mode_validation():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        naspipe(mirror_mode="teleport")
