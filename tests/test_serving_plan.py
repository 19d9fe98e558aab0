"""The per-architecture plan against a fresh derivation, and what it saves.

``ServingInputs`` interns one plan per distinct choice tuple — digest,
per-stage layer tuples, per-stage forward ms — and every request path
of every engine reading it reads it.  The reference below is what the engine computed *per request*
before the plan existed, kept verbatim (as ``dispatch_reference.py``
keeps the broadcast dispatch): the plan must equal it bit for bit,
because ``stage_ms`` feeds ``done_ms``, every latency and the pinned
report hash.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.ft.faults import FaultEvent, FaultSchedule
from repro.serving import ServingEngine, ServingSpec, generate_requests, subnet_digest
from repro.serving import frontend
from repro.supernet.subnet import Subnet

_SPACES = {
    "NLP.c3": {"num_blocks": 8, "functional_width": 16},
    "CV.c3": {"num_blocks": 6, "functional_width": 8},
}
_ENGINES = {}


def _engine(space, stages):
    """One engine per (space, stages) for the whole file: plans interned
    by one example must still be right when a later example asks again."""
    if (space, stages) not in _ENGINES:
        _ENGINES[space, stages] = ServingEngine(
            ServingSpec.from_payload({
                "space": space, "space_overrides": _SPACES[space],
                "num_gpus": stages, "total_gpus": 4, "eval_batch": 3,
            })
        )
    return _ENGINES[space, stages]


def _reference(engine, subnet):
    """The three per-request derivations the plan replaced."""
    digest = subnet_digest(engine.space.name, subnet)
    stage_layers = tuple(
        subnet.layers_in_range(start, stop) for start, stop in engine.inputs.partition
    )
    stage_ms = tuple(
        sum(
            engine.supernet.layer_fwd_ms(layer, engine.spec.eval_batch)
            for layer in layers
        )
        for layers in stage_layers
    )
    return digest, stage_layers, stage_ms


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("stages", [2, 4])
@pytest.mark.parametrize("space", sorted(_SPACES))
def test_plan_equals_a_fresh_derivation(space, stages, data):
    engine = _engine(space, stages)
    choice = st.integers(0, engine.space.choices_per_block - 1)
    drawn = data.draw(
        st.lists(
            st.lists(
                choice, min_size=engine.space.num_blocks, max_size=engine.space.num_blocks
            ).map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    # every architecture twice, under different subnet ids
    subnets = [Subnet(index, choices) for index, choices in enumerate(drawn + drawn)]
    for subnet in subnets:
        plan = engine.inputs.plan(subnet)
        digest, stage_layers, stage_ms = _reference(engine, subnet)
        assert plan.digest == digest
        assert plan.stage_layers == stage_layers
        assert plan.stage_ms == stage_ms  # ``==`` on floats: bitwise, not approx
        assert sum(map(len, plan.stage_layers)) == engine.space.num_blocks
    for first, again in zip(subnets, subnets[len(drawn):]):
        assert engine.inputs.plan(first) is engine.inputs.plan(again)  # interned by choices
    plans = engine.inputs._plans
    assert len(plans) == len({tuple(plan) for plan in plans.values()})


# ----------------------------------------------------------------------
# a pinned 300-request run: the effort the plan saves, and revocation
# ----------------------------------------------------------------------
#: the serving tenant of ``examples/chaos_fleet_demo.json``, 300 requests
_FLEET_SHAPED = {
    "space": "NLP.c3",
    "space_overrides": {"num_blocks": 8, "functional_width": 16},
    "num_gpus": 2,
    "total_gpus": 8,
    "eval_batch": 8,
    "requests": 300,
    "arrival": "poisson",
    "rate_rps": 50,
    "skew": 0.7,
    "hot_prefixes": 4,
    "prefix_blocks": 6,
    "repeat_fraction": 0.3,
    "seed": 2022,
    "max_batch": 8,
    "max_linger_ms": 6.0,
    "queue_bound": 24,
    "result_entries": 256,
    "cache_subnets": 3.0,
    "slo_ms": 400.0,
}


@pytest.fixture
def digest_calls(monkeypatch):
    """Every ``subnet_digest`` call the serving engine makes."""
    calls = []

    def counted(space_name, subnet):
        calls.append(subnet.choices)
        return subnet_digest(space_name, subnet)

    monkeypatch.setattr(frontend, "subnet_digest", counted)
    return calls


def _distinct_architectures(spec, space):
    return {request.subnet.choices for request in generate_requests(spec.workload, space)}


def test_digest_once_per_architecture_and_no_python_ordering(digest_calls):
    """Effort guards.  Was: arrival and completion each re-hashed the
    same request — 20,505 digests for 6,588 distinct (engine,
    architecture) pairs per ``serving_open`` iteration — and every heap
    sift ran ``ScheduledEvent.__lt__`` in Python (461,322 calls)."""
    spec = ServingSpec.from_payload(_FLEET_SHAPED)
    engine = ServingEngine(spec)
    ordered_in_python = []

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_name == "__lt__":
            ordered_in_python.append(frame.f_code.co_filename)

    sys.setprofile(profiler)
    try:
        result = engine.run()
    finally:
        sys.setprofile(None)
    # the event queue orders key tuples in C: no handle is ever compared
    assert ordered_in_python == [] and engine.sim.events_processed > 300
    distinct = _distinct_architectures(spec, engine.space)
    assert len(result.records) == 300 and len(distinct) < 300  # repeats exist
    assert sorted(digest_calls) == sorted(distinct)  # each exactly once
    assert set(engine.inputs._plans) == distinct


def test_plans_survive_a_revocation_and_the_cold_cache_behind_it(digest_calls):
    spec = ServingSpec.from_payload(_FLEET_SHAPED)
    makespan = ServingEngine(spec).run().makespan_ms
    del digest_calls[:]
    engine = ServingEngine(spec)
    engine.inject_fleet_faults(
        FaultSchedule(
            [FaultEvent("slot_preempt", makespan * 0.4, target=0, duration_ms=120.0)]
        )
    )
    plans, first_cache = engine.inputs._plans, engine.layer_cache
    result = engine.run()
    assert engine.revocations == 1 and sum(r.retries for r in result.records) > 0
    assert engine.layer_cache is not first_cache  # rebuilt cold on re-acquire
    assert engine.inputs._plans is plans  # ... the plans were not
    assert sorted(digest_calls) == sorted(_distinct_architectures(spec, engine.space))
    for request in generate_requests(spec.workload, engine.space):
        plan = engine.inputs.plan(request.subnet)
        assert tuple(plan) == _reference(engine, request.subnet)
    assert all(record.outcome != "pending" for record in result.records)
