"""Engine event-listener and CPU-memory tests."""

from repro.seeding import SeedSequenceTree


# ----------------------------------------------------------------------
# engine observation via trace.listeners
# ----------------------------------------------------------------------
def test_trace_listener_receives_ordered_events(tiny_supernet):
    from repro.baselines import naspipe
    from repro.engines.pipeline import PipelineEngine
    from repro.sim.cluster import ClusterSpec
    from repro.supernet.sampler import SubnetStream

    events = []
    stream = SubnetStream.sample(tiny_supernet.space, SeedSequenceTree(2), 6)
    engine = PipelineEngine(
        tiny_supernet, stream, naspipe(), ClusterSpec(num_gpus=2), batch=16
    )
    engine.trace.listeners.append(events.append)
    result = engine.run()
    # every event recorded since subscribing, in emission order
    assert events == result.trace.events[-len(events):]
    tasks = [
        e for e in events
        if e.kind in ("task_dispatch", "task_done", "subnet_complete")
    ]
    kinds = [(e.kind, e.attr("direction")) for e in tasks]
    assert kinds.count(("subnet_complete", None)) == 6
    assert kinds.count(("task_dispatch", "fwd")) == 6 * 2
    assert kinds.count(("task_done", "bwd")) == 6 * 2
    # Completion times non-decreasing per emission order of completions.
    times = [e.time for e in tasks if e.kind == "subnet_complete"]
    assert times == sorted(times)
    # First event of any subnet is its stage-0 forward start.
    first_for_zero = next(e for e in tasks if e.subnet_id == 0)
    assert first_for_zero.kind == "task_dispatch"
    assert first_for_zero.attr("direction") == "fwd"
    assert first_for_zero.stage == 0
    assert first_for_zero.attr("start") >= first_for_zero.time


# ----------------------------------------------------------------------
# CPU pinned-memory feasibility
# ----------------------------------------------------------------------
def cpu_pinned_bytes_per_stage(supernet, config, stages):
    """Pinned host memory a stage needs for its supernet partition.

    Swapped-context systems keep the whole supernet in pinned CPU memory,
    partitioned by choice-block hierarchy across stages (§4.2); the
    paper's artifact demands 100 GB of host RAM for exactly this reason.
    Full-context systems pin nothing (weights live on the GPU).
    """
    if config.context == "full":
        return 0
    return int(supernet.total_param_bytes() / stages)


def cpu_memory_feasible(supernet, config, cluster, host_memory_bytes=64 * 10**9):
    """Whether each host's RAM (64 GB on the testbed, 4 GPUs each) holds
    its stages' pinned partitions."""
    per_stage = cpu_pinned_bytes_per_stage(supernet, config, cluster.num_gpus)
    stages_per_host = min(cluster.gpus_per_host, cluster.num_gpus)
    return per_stage * stages_per_host <= host_memory_bytes


def test_cpu_memory_model():
    from repro.baselines import gpipe, naspipe
    from repro.sim.cluster import ClusterSpec
    from repro.supernet.search_space import get_search_space
    from repro.supernet.supernet import Supernet

    supernet = Supernet(get_search_space("NLP.c0"))
    cluster = ClusterSpec(num_gpus=8)
    pinned = cpu_pinned_bytes_per_stage(supernet, naspipe(), 8)
    assert pinned > 5 * 10**9  # ~10 GB of an ~80 GB supernet
    assert cpu_pinned_bytes_per_stage(supernet, gpipe(), 8) == 0
    # 64 GB hosts hold 4 stages' partitions of even the largest space...
    assert cpu_memory_feasible(supernet, naspipe(), cluster)
    # ...but a 16 GB workstation would not.
    assert not cpu_memory_feasible(
        supernet, naspipe(), cluster, host_memory_bytes=16 * 10**9
    )
