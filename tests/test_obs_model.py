"""The run model (``repro.obs.model``): what one reading of a trace holds.

The readers' bytes are pinned elsewhere (``goldens.json``, the
ledger); here the model's own facts are checked against a hand-built
trace, the ``bisect`` admission-releaser rule against the linear scan it
replaced, and "one model per public entry point" against a counter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.baselines import naspipe
from repro.engines.pipeline import PipelineEngine
from repro.obs.model import RunModel
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.sim.trace import ExecutionTrace
from repro.supernet.sampler import SubnetStream


def _two_stage_trace() -> ExecutionTrace:
    """Two subnets through two stages; SN1 is admitted when SN0
    completes, stalls 2 ms on a fetch at P0 and waits on SN0 at P1."""
    trace = ExecutionTrace(num_gpus=2)
    trace.record_event(
        "run_meta", 0.0, system="NASPipe", num_stages=2, batch=16,
        window=1, sync="csp",
    )
    trace.record_event(
        "link_meta", 0.0, src=0, dst=1, bandwidth=512.0, latency=1.0
    )
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
        src=1, dst=0, nbytes=2048, arrive=34.0, direction="bwd",
    )
    trace.record_interval(0, 34.0, 44.0, "bwd", 0)
    trace.record_subnet_complete(0, 44.0)
    trace.record_event("subnet_inject", 44.0, subnet_id=1)
    trace.record_event(
        "fetch_stall", 44.0, stage=0, subnet_id=1, wait_ms=2.0, misses=1
    )
    trace.record_interval(0, 44.0, 46.0, "stall", 1)
    trace.record_interval(0, 46.0, 56.0, "fwd", 1)
    trace.record_event(
        "csp_wait_begin", 50.0, stage=1, subnet_id=1,
        blocking_subnet=0, block=3, choice=2,
    )
    trace.record_event("csp_wait_end", 58.0, stage=1, subnet_id=1, waited_ms=8.0)
    return trace


def test_model_holds_chains_transfers_admissions_waits_and_links():
    model = RunModel(_two_stage_trace())
    assert [(a.kind, a.resource, a.start, a.end) for a in model.gpu_chain[0]] == [
        ("compute", "alu_busy", 0.0, 10.0),
        ("compute", "alu_busy", 34.0, 44.0),
        ("stall", "copy_fetch", 44.0, 46.0),
        ("compute", "alu_busy", 46.0, 56.0),
    ]
    assert [a.gpu_index for a in model.gpu_chain[0]] == [0, 1, 2, 3]
    assert model.compute_index[(1, 0, "bwd")][0].duration == 10.0
    assert sorted(model.transfers) == [("bwd", 0, 0), ("fwd", 1, 0)]
    assert model.transfers[("bwd", 0, 0)].nbytes == 2048.0
    assert model.transfers[("bwd", 0, 0)].stage == 1  # the sending stage
    assert list(model.injects) == [0, 1]  # stream order
    assert model.releaser == {1: 0}  # SN0 had nothing to wait for
    assert model.wait_segments == {1: [(50.0, 58.0)]}
    assert model.links == {(0, 1): (512.0, 1.0)}
    assert model.num_stages == 2


def test_model_of_an_empty_trace_is_empty():
    model = RunModel(ExecutionTrace(num_gpus=3))
    assert model.gpu_chain == {0: [], 1: [], 2: []}
    assert not (model.transfers or model.injects or model.releaser)
    assert model.num_stages == 3  # no run_meta: the trace's GPU count


# ----------------------------------------------------------------------
# the admission releaser: bisect == the scan it replaced
# ----------------------------------------------------------------------
def _releaser_by_scan(completions, inject_time):
    """The reference: ``critical_path._Dag.predecessor`` and
    ``whatif._extract`` each ran this per injection before the model."""
    released_by = None
    for time, sid in completions:
        if time <= inject_time + 1e-9:
            released_by = sid
        else:
            break
    return released_by


#: times on a coarse grid plus sub-1e-9 offsets, so draws hit exact ties
#: and gaps on either side of the tolerance
_TIMES = st.builds(
    lambda base, nudge: base + nudge,
    st.integers(min_value=0, max_value=6).map(float),
    st.sampled_from([0.0, 4e-10, -4e-10, 1e-9, -1e-9, 2e-9, -2e-9, 0.25]),
)


@given(
    completion_times=st.lists(_TIMES, max_size=8),
    inject_times=st.lists(_TIMES, min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_bisect_releaser_equals_the_linear_scan(completion_times, inject_times):
    trace = ExecutionTrace(num_gpus=1)
    for sid, time in enumerate(completion_times):
        trace.record_subnet_complete(sid, time)
    for offset, time in enumerate(inject_times):
        trace.record_event("subnet_inject", time, subnet_id=100 + offset)
    completions = sorted((time, sid) for sid, time in enumerate(completion_times))
    expected = {}
    for offset, time in enumerate(inject_times):
        released_by = _releaser_by_scan(completions, time)
        if released_by is not None:
            expected[100 + offset] = released_by
    assert RunModel(trace).releaser == expected


# ----------------------------------------------------------------------
# one model per public entry point
# ----------------------------------------------------------------------
@pytest.fixture
def csp_result(tiny_supernet):
    stream = SubnetStream.sample(tiny_supernet.space, SeedSequenceTree(7), 8)
    return PipelineEngine(
        tiny_supernet, stream, naspipe(), ClusterSpec(num_gpus=2), batch=16
    ).run()


def test_each_public_reader_builds_the_model_once(csp_result, monkeypatch):
    builds = []
    build = RunModel.__init__
    monkeypatch.setattr(
        RunModel, "__init__", lambda self, trace: builds.append(1) or build(self, trace)
    )
    trace = csp_result.trace
    readers = {
        "run_summary": lambda: obs.run_summary(csp_result),  # both halves
        "bubble_attribution": lambda: obs.bubble_attribution(trace),
        "critical_path": lambda: obs.critical_path(trace),
        "critical_path_breakdown": lambda: obs.critical_path_breakdown(trace),
        "what_if_report": lambda: obs.what_if_report(trace),  # 5 scenarios
        "project": lambda: obs.project(trace, "infinite_nic"),
    }
    for name, read in readers.items():
        del builds[:]
        read()
        assert len(builds) == 1, name
    del builds[:]
    obs.export_chrome_trace(trace)  # wait windows only: no model
    assert builds == []
