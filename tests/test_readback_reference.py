"""The trace readers read each fact once per call; these tests hold them
to the readers they replaced (``readback_reference.py``, copied
verbatim), byte for byte.

Hypothesis draws the run: any of the seven search spaces, NASPipe,
PipeDream, GPipe or VPipe on 1–16 GPUs, 1–24 subnets and the seed, with
an undersized cache (fetch stalls and OOM retries), on-demand migration
(``nic_transfer``-class stalls) and a seeded schedule of transient task
errors, copy stalls and NIC slowdowns (task retries).  For each run the
summary, the critical-path breakdown and the what-if report must be the
same canonical JSON, and the Chrome export the same text.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import readback_reference as reference
from repro import obs
from repro.baselines import system_by_name
from repro.engines.pipeline import PipelineEngine
from repro.errors import GpuOutOfMemoryError
from repro.ft import FaultSchedule
from repro.ft.injector import FaultInjector
from repro.payload import compact
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.sim.trace import ExecutionTrace
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space, list_search_spaces
from repro.supernet.supernet import Supernet

#: what a run may carry besides its system's defaults
_OVERRIDES = {
    "defaults": {},
    "undersized cache": {"cache_subnets": 0.6},
    "migrate": {"mirror_mode": "migrate"},
}
_TRANSIENT = ("copy_stall", "task_error", "nic_degrade")


def _run(space, system, overrides, gpus, subnets, seed, faults):
    """The drawn run, or None when it cannot be built (fewer blocks than
    stages, or no batch fits)."""
    space = get_search_space(space)
    if space.num_blocks < gpus:
        return None
    injector = None
    if faults:
        injector = FaultInjector(
            FaultSchedule.from_mtbf(
                SeedSequenceTree(seed), 150.0, 4000.0, gpus, kinds=_TRANSIENT
            )
        )
    try:
        return PipelineEngine(
            Supernet(space),
            SubnetStream.sample(space, SeedSequenceTree(seed), subnets),
            system_by_name(system).with_overrides(**_OVERRIDES[overrides]),
            ClusterSpec(num_gpus=gpus),
            batch=32,
            faults=injector,
        ).run()
    except GpuOutOfMemoryError:
        return None


def assert_reads_like_the_reference(result):
    trace = result.trace
    assert compact(obs.run_summary(result)) == compact(reference.run_summary(result))
    assert compact(obs.critical_path_breakdown(trace)) == compact(
        reference.critical_path_breakdown(trace)
    )
    assert compact(obs.what_if_report(trace)) == compact(reference.what_if_report(trace))
    envelope = dict(label="readback", system=result.system, space=result.space)
    assert obs.export_chrome_trace(trace, **envelope) == reference.export_chrome_trace(
        trace, **envelope
    )


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    space=st.sampled_from(list_search_spaces()),
    system=st.sampled_from(["NASPipe", "PipeDream", "GPipe", "VPipe"]),
    overrides=st.sampled_from(sorted(_OVERRIDES)),
    gpus=st.integers(1, 16),
    subnets=st.integers(1, 24),
    seed=st.integers(0, 2**16),
    faults=st.booleans(),
)
def test_drawn_runs_read_like_the_reference(
    space, system, overrides, gpus, subnets, seed, faults
):
    result = _run(space, system, overrides, gpus, subnets, seed, faults)
    assume(result is not None)
    assert_reads_like_the_reference(result)


@pytest.mark.parametrize(
    "overrides, stall",
    [("undersized cache", "oom_retry"), ("migrate", "migration")],
)
def test_every_stall_cause_reads_like_the_reference(overrides, stall):
    """One run per stall class the draws are meant to reach: OOM
    retries, migrations and transient task retries all on the path."""
    result = _run("NLP.c2", "NASPipe", overrides, 4, 24, 3, True)
    counts = result.trace.event_counts()
    assert counts.get(stall) and counts.get("task_retry") and counts.get("fetch_stall")
    assert_reads_like_the_reference(result)


def test_a_repeated_event_is_rendered_once_and_exactly():
    """The exporter renders a repeated eviction, queue depth, ready set
    or prefetch issue, and a repeated timestamp, once per call; equal
    attrs, stages or times of another type (``1``, ``1.0``, ``True``;
    ``0.0`` and ``-0.0``) are still spelled as they are."""
    trace = ExecutionTrace(num_gpus=2)
    shared = (("block", 1), ("choice", 2), ("nbytes", 64), ("dirty", False), ("reason", "lru"))
    values = (1, 1.0, True, 0, 0.0, -0.0, False, 1, 2**70)
    times = (0.0, -0.0, 0, 1, 1.0, True, 2.5, 2.5, float("nan"), float("inf"))
    for time, value in zip(times, values * 2):
        for stage in (1, True, 1.0):
            trace.append_event("queue_depth", time, stage, -1, (("fwd", value), ("bwd", 0)))
            trace.append_event("ready_set", time, stage, -1, (("size", value),))
            trace.append_event("eviction", time, stage, -1, shared)
            trace.append_event(
                "eviction", time, stage, -1, (*shared[:2], ("nbytes", value), *shared[3:])
            )
            trace.append_event(
                "prefetch_issue",
                time,
                stage,
                -1,
                (*shared[:2], ("nbytes", value), ("demand", value), ("land", time + 0.5)),
            )
    assert obs.export_chrome_trace(trace) == reference.export_chrome_trace(trace)
