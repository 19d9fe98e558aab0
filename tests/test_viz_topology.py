"""Visualisation, Chrome-trace export, and multi-host topology tests."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import export_chrome_trace, validate_chrome_trace
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.trace import ExecutionTrace
from repro.viz import ascii_gantt, utilization_sparklines


def _sample_trace():
    trace = ExecutionTrace(num_gpus=2)
    trace.record_interval(0, 0.0, 10.0, "fwd", 3)
    trace.record_interval(0, 10.0, 12.0, "stall", 4)
    trace.record_interval(0, 12.0, 30.0, "bwd", 3)
    trace.record_interval(1, 5.0, 20.0, "fwd", 4)
    trace.record_subnet_complete(3, 30.0)
    return trace


def test_ascii_gantt_marks_kinds():
    text = ascii_gantt(_sample_trace(), width=40)
    lines = text.splitlines()
    assert lines[0].startswith("GPU0 |")
    assert "3" in lines[0]  # forward of SN3
    assert "d" in lines[0]  # backward of SN3 -> chr('a'+3)
    assert "." in lines[0]  # stall
    assert "4" in lines[1]


def test_ascii_gantt_window():
    text = ascii_gantt(_sample_trace(), width=40, start=12.0, end=30.0)
    # The window contains only SN3's backward on GPU0.
    assert "3" not in text.splitlines()[0]
    assert "d" in text.splitlines()[0]


def test_sparklines_shape():
    text = utilization_sparklines(_sample_trace(), buckets=20)
    lines = text.splitlines()
    assert len(lines) == 2
    assert len(lines[0]) == len(lines[1])


def test_chrome_trace_valid_json_and_complete():
    payload = json.loads(export_chrome_trace(_sample_trace(), label="test"))
    assert validate_chrome_trace(payload) == []
    events = payload["traceEvents"]
    names = {event["name"] for event in events}
    assert "SN3 forward" in names
    assert "SN3 backward" in names
    assert "SN4 stall" in names
    assert "SN3 complete" in names
    duration_events = [e for e in events if e.get("ph") == "X"]
    assert all(e["dur"] >= 0 for e in duration_events)
    assert {e["tid"] for e in duration_events} == {0, 1}


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
def test_uniform_network_default():
    spec = ClusterSpec(num_gpus=8)
    bandwidth, latency = spec.link_parameters(3, 4)
    assert bandwidth == spec.network_bandwidth_bytes_per_ms
    assert latency == spec.network_latency_ms


def test_topology_aware_links():
    spec = ClusterSpec(num_gpus=8, uniform_network=False, gpus_per_host=4)
    intra_bw, intra_lat = spec.link_parameters(1, 2)  # same host
    inter_bw, inter_lat = spec.link_parameters(3, 4)  # host boundary
    assert intra_bw > inter_bw
    assert intra_lat < inter_lat
    assert spec.host_of(3) == 0 and spec.host_of(4) == 1
    assert spec.num_hosts == 2


def test_cluster_builds_topology_links():
    spec = ClusterSpec(num_gpus=8, uniform_network=False, gpus_per_host=4)
    cluster = Cluster(spec)
    # link 2->3 intra-host, link 3->4 inter-host
    assert (
        cluster.forward_links[2].bandwidth_bytes_per_ms
        > cluster.forward_links[3].bandwidth_bytes_per_ms
    )


def test_topology_speeds_up_pipeline():
    from repro.baselines import naspipe
    from repro.engines.pipeline import PipelineEngine
    from repro.seeding import SeedSequenceTree
    from repro.supernet.sampler import SubnetStream
    from repro.supernet.search_space import get_search_space
    from repro.supernet.supernet import Supernet

    space = get_search_space("NLP.c2")
    supernet = Supernet(space)

    def run(uniform):
        stream = SubnetStream.sample_generational(
            space, SeedSequenceTree(5), 40
        )
        spec = ClusterSpec(num_gpus=8, uniform_network=uniform)
        return PipelineEngine(
            supernet, stream, naspipe(), spec, batch=192
        ).run()

    uniform = run(True)
    topo = run(False)
    # 6 of 7 hops become intra-host (faster): makespan cannot get worse.
    assert topo.makespan_ms <= uniform.makespan_ms * 1.01


def test_gpus_per_host_validation():
    with pytest.raises(ConfigError):
        ClusterSpec(gpus_per_host=0)
