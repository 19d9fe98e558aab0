"""A bench's shared serving inputs against each engine deriving its own.

``tests/serving_reference.py`` keeps the request draw and the plan
builder as they were when every engine drew its own requests and built
its own plans.  The shared source must hand out the same request lists
(ids, arrival times bit for bit, choices) and the same plans, and a
``run_bench`` reading one source must report and trace exactly what
three engines that each derive their own inputs do.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.payload import compact
from repro.serving.frontend import ServingEngine, ServingInputs, ServingSpec, run_bench
from repro.serving.workload import WorkloadSpec
from serving_reference import ReferencePlanner, generate_requests

_SPACES = ("NLP.c3", "CV.c3")
_SCENARIOS = ("primary", "no_cache", "overload")


@st.composite
def _deployment(draw, max_requests):
    """A small drawn serving config: space, partition, workload, policy."""
    num_blocks = draw(st.integers(2, 6))
    max_batch = draw(st.integers(1, 6))
    return {
        "space": draw(st.sampled_from(_SPACES)),
        "space_overrides": {"num_blocks": num_blocks, "functional_width": 8},
        "num_gpus": draw(st.integers(1, min(num_blocks, 3))),
        "total_gpus": 4,
        "eval_batch": draw(st.integers(1, 16)),
        "requests": draw(st.integers(1, max_requests)),
        "arrival": draw(st.sampled_from(["poisson", "bursty"])),
        "rate_rps": draw(st.sampled_from([5.0, 40.0, 120.0, 900.0])),
        "burst_factor": draw(st.sampled_from([1.5, 4.0])),
        "burst_period_ms": draw(st.sampled_from([20.0, 200.0])),
        "skew": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "hot_prefixes": draw(st.integers(1, 4)),
        "prefix_blocks": draw(st.integers(0, num_blocks)),
        "repeat_fraction": draw(st.sampled_from([0.0, 0.3, 1.0])),
        "seed": draw(st.integers(0, 2**32)),
        "max_batch": max_batch,
        "max_linger_ms": draw(st.sampled_from([0.0, 3.0])),
        "queue_bound": max_batch + draw(st.integers(0, 8)),
        "result_entries": draw(st.sampled_from([0, 4, 64])),
        "cache_subnets": draw(st.sampled_from([1.0, 3.0])),
        "slo_ms": 400.0,
        "overload_rate_factor": draw(st.sampled_from([1.0, 6.0])),
    }


def _arrival_variant(workload: WorkloadSpec, rate_factor: float, arrival: str) -> WorkloadSpec:
    """The same request paths arriving by another process."""
    return WorkloadSpec(**{
        **workload.__dict__, "rate_rps": workload.rate_rps * rate_factor, "arrival": arrival,
    })


@settings(max_examples=60, deadline=None)
@given(
    config=_deployment(max_requests=80),
    variants=st.lists(
        st.tuples(st.sampled_from([1.0, 0.5, 6.0]), st.sampled_from(["poisson", "bursty"])),
        min_size=1,
        max_size=3,
    ),
)
def test_the_source_draws_the_reference_requests_and_plans(config, variants):
    spec = ServingSpec.from_payload(config)
    inputs = ServingInputs(spec)
    planner = ReferencePlanner(spec)
    for rate_factor, arrival in [(1.0, spec.workload.arrival), *variants]:
        workload = _arrival_variant(spec.workload, rate_factor, arrival)
        shared = inputs.draws.requests(workload)
        reference = generate_requests(workload, inputs.space)
        assert [r.request_id for r in shared] == [r.request_id for r in reference]
        assert [r.arrival_ms.hex() for r in shared] == [r.arrival_ms.hex() for r in reference]
        assert [r.subnet for r in shared] == [r.subnet for r in reference]
        for request in shared:
            # ``==`` on the tuple: digest, layer shares, floats bitwise
            assert inputs.plan(request.subnet) == planner._plan(request.subnet)
        # a second ask hands out the very list: drawn once
        assert inputs.draws.requests(workload) is shared
    # every arrival process reads the same frozen subnets
    first = inputs.draws.requests(spec.workload)
    for rate_factor, arrival in variants:
        again = inputs.draws.requests(_arrival_variant(spec.workload, rate_factor, arrival))
        assert all(a.subnet is b.subnet for a, b in zip(first, again))


def _columns(trace):
    events = trace.events
    return [
        repr(column)  # repr: an int stays an int, a float round-trips bitwise
        for column in (events.kind, events.time, events.stage, events.subnet_id, events.attrs)
    ] + [repr(trace.intervals), repr(trace.end_time)]


def _bench(config):
    """``run_bench``'s report and its three scenarios' traces."""
    results = []
    run = ServingEngine.run

    def recorded(engine):
        results.append(run(engine))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServingEngine, "run", recorded)
        report = run_bench(config)
    return report, [result.trace for result in results]


@settings(max_examples=25, deadline=None)
@given(config=_deployment(max_requests=40))
def test_a_bench_on_one_source_equals_engines_deriving_their_own(config):
    spec = ServingSpec.from_payload(config)
    report, traces = _bench(config)
    overload = ServingSpec(**{
        **spec.__dict__,
        "workload": _arrival_variant(
            spec.workload, spec.overload_rate_factor, spec.workload.arrival
        ),
    })
    alone = [  # each engine derives its own inputs
        ServingEngine(spec, cache_enabled=True).run(),
        ServingEngine(spec, cache_enabled=False).run(),
        ServingEngine(overload, cache_enabled=True).run(),
    ]
    assert len(traces) == len(alone)
    for name, result, trace in zip(_SCENARIOS, alone, traces):
        assert compact(report[name]) == compact(result.scenario_report()), name
        assert _columns(trace) == _columns(result.trace), name
