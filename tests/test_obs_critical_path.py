"""Critical-path analysis: exact tiling, attribution, determinism.

The headline invariant (docs/ANALYSIS.md): the walked path **tiles the
active window exactly**, so segment lengths sum to the measured makespan
within 1e-9 — first on a hand-built golden 2-stage trace where the path
is known by inspection, then across systems and GPU counts on simulated
runs.  The breakdown dict must also be byte-deterministic, because the
registry hashes it into ``run_id``.
"""

import json

import pytest

from repro.baselines import gpipe, naspipe, pipedream, vpipe
from repro.engines.pipeline import PipelineEngine
from repro.obs import (
    RESOURCE_CLASSES,
    critical_path,
    critical_path_breakdown,
    run_summary,
)
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.sim.trace import ExecutionTrace
from repro.supernet.sampler import SubnetStream
from repro.supernet.supernet import Supernet


def _length_ms(path):
    """The summed duration of a walked path's segments."""
    return sum(segment.duration for segment in path.segments)


def _run(supernet, config, count=6, gpus=2, batch=16, seed=7):
    stream = SubnetStream.sample(supernet.space, SeedSequenceTree(seed), count)
    engine = PipelineEngine(
        supernet, stream, config, ClusterSpec(num_gpus=gpus), batch=batch
    )
    return engine.run()


# ----------------------------------------------------------------------
# golden hand-built traces: the path is known by inspection
# ----------------------------------------------------------------------
def _golden_trace():
    """One subnet through two stages, no idle anywhere:

    P0: fwd [0,10]            bwd [34,44]
    P1:        fwd [12,22] bwd [22,32]
    links: fwd 10->12 (P0->P1), bwd 32->34 (P1->P0)
    """
    trace = ExecutionTrace(num_gpus=2)
    trace.record_event("subnet_inject", 0.0, subnet_id=0)
    trace.record_interval(0, 0.0, 10.0, "fwd", 0)
    trace.record_event(
        "nic_transfer", 10.0, stage=0, subnet_id=0,
        src=0, dst=1, nbytes=1024, arrive=12.0, direction="fwd",
    )
    trace.record_interval(1, 12.0, 22.0, "fwd", 0)
    trace.record_interval(1, 22.0, 32.0, "bwd", 0)
    trace.record_event(
        "nic_transfer", 32.0, stage=1, subnet_id=0,
        src=1, dst=0, nbytes=1024, arrive=34.0, direction="bwd",
    )
    trace.record_interval(0, 34.0, 44.0, "bwd", 0)
    trace.record_subnet_complete(0, 44.0)
    return trace


def test_golden_path_length_equals_makespan_exactly():
    trace = _golden_trace()
    path = critical_path(trace)
    # exact equality, not approx: the segments telescope
    assert _length_ms(path) == trace.makespan == 44.0


def test_golden_attribution_sums_to_makespan_at_1e9():
    trace = _golden_trace()
    path = critical_path(trace)
    by_resource = path.by_resource()
    assert abs(sum(by_resource.values()) - trace.makespan) < 1e-9
    # 4 compute tasks of 10 ms + 2 transfers of 2 ms, nothing else
    assert by_resource["alu_busy"] == pytest.approx(40.0, abs=1e-9)
    assert by_resource["nic_transfer"] == pytest.approx(4.0, abs=1e-9)
    for resource in RESOURCE_CLASSES:
        if resource not in ("alu_busy", "nic_transfer"):
            assert by_resource[resource] == 0.0


def test_golden_segments_tile_the_window():
    trace = _golden_trace()
    segments = critical_path(trace).segments
    assert segments[0].start == trace.start_time
    assert segments[-1].end == trace.end_time
    for left, right in zip(segments, segments[1:]):
        assert left.end == right.start  # adjacent segments share endpoints
    # chronological resource sequence matches the diagram above
    assert [s.resource for s in segments] == [
        "alu_busy", "nic_transfer", "alu_busy",
        "alu_busy", "nic_transfer", "alu_busy",
    ]


def test_golden_idle_gap_under_open_wait_window_is_csp_wait():
    """Delay fwd@P1 by 3 ms under an open CSP wait window: the gap must
    land on the path charged to ``csp_wait`` and the tiling must hold."""
    trace = ExecutionTrace(num_gpus=2)
    trace.record_event("subnet_inject", 0.0, subnet_id=0)
    trace.record_interval(0, 0.0, 10.0, "fwd", 0)
    trace.record_event(
        "nic_transfer", 10.0, stage=0, subnet_id=0,
        src=0, dst=1, nbytes=1024, arrive=12.0, direction="fwd",
    )
    trace.record_event(
        "csp_wait_begin", 12.0, stage=1, subnet_id=0,
        blocking_subnet=0, block=0, choice=0,
    )
    trace.record_event("csp_wait_end", 15.0, stage=1, subnet_id=0, waited_ms=3.0)
    trace.record_interval(1, 15.0, 25.0, "fwd", 0)
    trace.record_interval(1, 25.0, 35.0, "bwd", 0)
    trace.record_event(
        "nic_transfer", 35.0, stage=1, subnet_id=0,
        src=1, dst=0, nbytes=1024, arrive=37.0, direction="bwd",
    )
    trace.record_interval(0, 37.0, 47.0, "bwd", 0)
    trace.record_subnet_complete(0, 47.0)

    path = critical_path(trace)
    by_resource = path.by_resource()
    assert _length_ms(path) == pytest.approx(trace.makespan, abs=1e-9)
    assert by_resource["csp_wait"] == pytest.approx(3.0, abs=1e-9)
    assert by_resource["alu_busy"] == pytest.approx(40.0, abs=1e-9)
    # per-stage totals also tile the window
    assert sum(path.by_stage().values()) == pytest.approx(
        trace.makespan, abs=1e-9
    )


# ----------------------------------------------------------------------
# simulated runs: the invariant holds for every system and GPU count
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "config",
    [naspipe(), pipedream(), gpipe(), vpipe()],
    ids=lambda c: c.name,
)
@pytest.mark.parametrize("gpus", [2, 4])
def test_breakdown_sums_to_makespan_across_systems(tiny_supernet, config, gpus):
    result = _run(tiny_supernet, config, count=8, gpus=gpus)
    breakdown = critical_path_breakdown(result.trace)
    assert abs(breakdown["path_ms"] - result.trace.makespan) < 1e-9
    assert abs(breakdown["makespan_ms"] - result.trace.makespan) < 1e-9
    assert abs(
        sum(breakdown["by_resource_ms"].values()) - breakdown["path_ms"]
    ) < 1e-9
    assert abs(sum(breakdown["by_stage_ms"].values()) - breakdown["path_ms"]) < 1e-9


def test_breakdown_covers_every_resource_class(tiny_supernet):
    breakdown = critical_path_breakdown(_run(tiny_supernet, naspipe()).trace)
    assert set(breakdown["by_resource_ms"]) == set(RESOURCE_CLASSES)
    assert set(breakdown["by_resource_fraction"]) == set(RESOURCE_CLASSES)
    assert sum(breakdown["by_resource_fraction"].values()) == pytest.approx(1.0)
    assert sum(breakdown["per_stage_share"].values()) == pytest.approx(1.0)


def test_breakdown_is_byte_deterministic(tiny_supernet):
    first = critical_path_breakdown(_run(tiny_supernet, naspipe()).trace)
    second = critical_path_breakdown(_run(tiny_supernet, naspipe()).trace)
    dumps = lambda payload: json.dumps(  # noqa: E731
        payload, sort_keys=True, separators=(",", ":")
    )
    assert dumps(first) == dumps(second)


def test_stall_heavy_run_attributes_copy_fetch(small_supernet):
    """An undersized cache forces synchronous fetches; some must surface
    on the critical path as ``copy_fetch`` (or the run had no stalls)."""
    result = _run(
        small_supernet, naspipe(cache_subnets=1.0, predictor=False),
        count=8, gpus=4,
    )
    breakdown = critical_path_breakdown(result.trace)
    stalls = [i for i in result.trace.intervals if i.kind == "stall"]
    assert abs(breakdown["path_ms"] - result.trace.makespan) < 1e-9
    if stalls:
        non_alu = breakdown["path_ms"] - breakdown["by_resource_ms"]["alu_busy"]
        assert non_alu > 0


def test_run_summary_stage_rows_carry_cp_share(tiny_supernet):
    result = _run(tiny_supernet, naspipe())
    summary = run_summary(result)
    shares = [row["cp_share"] for row in summary["per_stage"]]
    assert len(shares) == result.num_gpus
    assert all(share >= 0.0 for share in shares)
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def test_empty_trace_degenerates_cleanly():
    trace = ExecutionTrace(num_gpus=2)
    path = critical_path(trace)
    assert path.segments == []
    assert _length_ms(path) == 0.0
    breakdown = critical_path_breakdown(trace)
    assert breakdown["path_ms"] == 0.0
    assert breakdown["num_segments"] == 0
