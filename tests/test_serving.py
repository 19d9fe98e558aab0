"""Serving plane: determinism, cache effect, shedding, SLO, trace schema.

The benchmark's structural claims are asserted here directly on a
CI-sized config: two runs are byte-identical
(including shed decisions under overload), the cache strictly raises
the hit rate and lowers p99, and overload sheds deterministically while
every admitted request stays inside the SLO.
"""

import gc
import json
import weakref

import pytest

from repro.core.context_manager import StageContextManager
from repro.errors import ConfigError
from repro.obs.events import validate_trace
from repro.seeding import SeedSequenceTree
from repro.serving import (
    BatchPolicy,
    BoundedBatcher,
    EvalRequest,
    RequestDraws,
    ResultCache,
    ServingEngine,
    ServingInputs,
    ServingSpec,
    WorkloadSpec,
    run_bench,
    serving_report_json,
    subnet_digest,
)
from repro.serving import frontend
from repro.sim.devices import CopyEngine
from repro.supernet.search_space import get_search_space

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from context_manager_reference import is_resident, peek_residency  # noqa: E402
from readback_reference import events_of  # noqa: E402

# One CI-sized config shared by the whole file (small space, short
# stream) — the same three-scenario shape as examples/serving_demo.json.
SMALL_CONFIG = {
    "space": "NLP.c3",
    "space_overrides": {"num_blocks": 4, "functional_width": 8},
    "num_gpus": 2,
    "total_gpus": 4,
    "eval_batch": 4,
    "requests": 60,
    "arrival": "poisson",
    "rate_rps": 80.0,
    "skew": 0.7,
    "hot_prefixes": 3,
    "prefix_blocks": 3,
    "repeat_fraction": 0.3,
    "seed": 2022,
    "max_batch": 4,
    "max_linger_ms": 4.0,
    "queue_bound": 8,
    "result_entries": 64,
    "cache_subnets": 3.0,
    "slo_ms": 400.0,
    "overload_rate_factor": 8.0,
}


@pytest.fixture(scope="module")
def bench():
    return run_bench(SMALL_CONFIG)


def _small_space():
    return get_search_space("NLP.c3").scaled(num_blocks=4, functional_width=8)


def _request(request_id, arrival_ms=0.0):
    # The batcher never inspects the subnet, so admission-control unit
    # tests can run without sampling one.
    return EvalRequest(request_id=request_id, arrival_ms=arrival_ms, subnet=None)


# ----------------------------------------------------------------------
# workload generation
# ----------------------------------------------------------------------
def test_workload_is_deterministic():
    space = _small_space()
    spec = WorkloadSpec(num_requests=40, prefix_blocks=3, seed=7)
    first = RequestDraws(spec, space).requests(spec)
    second = RequestDraws(spec, space).requests(spec)
    assert [r.arrival_ms for r in first] == [r.arrival_ms for r in second]
    assert [r.subnet.choices for r in first] == [
        r.subnet.choices for r in second
    ]


def test_arrivals_strictly_increase():
    space = _small_space()
    for arrival in ("poisson", "bursty"):
        spec = WorkloadSpec(
            num_requests=50, arrival=arrival, prefix_blocks=3, seed=3
        )
        times = [r.arrival_ms for r in RequestDraws(spec, space).requests(spec)]
        assert all(b > a for a, b in zip(times, times[1:]))


def test_full_repeat_fraction_only_replays_history():
    space = _small_space()
    spec = WorkloadSpec(
        num_requests=30, repeat_fraction=1.0, prefix_blocks=3, seed=5
    )
    requests = RequestDraws(spec, space).requests(spec)
    seen = {requests[0].subnet.choices}
    for request in requests[1:]:
        assert request.subnet.choices in seen
        seen.add(request.subnet.choices)


def test_repeats_share_the_result_cache_key():
    space = _small_space()
    spec = WorkloadSpec(
        num_requests=30, repeat_fraction=0.9, prefix_blocks=3, seed=5
    )
    requests = RequestDraws(spec, space).requests(spec)
    digests = [subnet_digest(space.name, r.subnet) for r in requests]
    assert len(set(digests)) < len(digests)  # verbatim repeats collide
    # ... and distinct choice paths never collide.
    by_choices = {r.subnet.choices for r in requests}
    assert len(set(digests)) == len(by_choices)


def test_workload_validation_rejects_bad_specs():
    space = _small_space()
    with pytest.raises(ConfigError):
        WorkloadSpec(arrival="uniform").validate(space)
    with pytest.raises(ConfigError):
        WorkloadSpec(rate_rps=0.0, prefix_blocks=3).validate(space)
    with pytest.raises(ConfigError):
        WorkloadSpec(prefix_blocks=99).validate(space)
    with pytest.raises(ConfigError):
        WorkloadSpec(skew=0.5, hot_prefixes=0, prefix_blocks=3).validate(space)


# ----------------------------------------------------------------------
# batcher + admission control
# ----------------------------------------------------------------------
def test_batch_policy_validation():
    with pytest.raises(ConfigError):
        BatchPolicy(max_batch=0).validate()
    with pytest.raises(ConfigError):
        BatchPolicy(max_linger_ms=-1.0).validate()
    with pytest.raises(ConfigError):
        BatchPolicy(max_batch=8, queue_bound=4).validate()


def test_offer_sheds_at_the_backlog_bound():
    batcher = BoundedBatcher(BatchPolicy(max_batch=4, queue_bound=4))
    for i in range(3):
        assert batcher.offer(_request(i), now=float(i), backlog=0)
    # Queue depth 3 + external backlog 1 == bound: shed.
    assert not batcher.offer(_request(3), now=3.0, backlog=1)
    assert batcher.shed == 1 and batcher.admitted == 3
    # With no external backlog the same offer is admitted.
    assert batcher.offer(_request(3), now=3.0, backlog=0)


def test_flush_full_emits_in_admission_order():
    batcher = BoundedBatcher(BatchPolicy(max_batch=3, queue_bound=8))
    for i in range(3):
        batcher.offer(_request(i, arrival_ms=float(i)), now=float(i), backlog=0)
    batch = batcher.flush_full(now=2.0)
    assert batch is not None and batch.cause == "full"
    assert [r.request_id for r in batch.requests] == [0, 1, 2]
    assert batch.oldest_wait_ms == 2.0
    assert batcher.depth() == 0


def test_linger_timer_flushes_partial_and_stale_timers_noop():
    batcher = BoundedBatcher(BatchPolicy(max_batch=4, queue_bound=8))
    batcher.offer(_request(0), now=0.0, backlog=0)
    batcher.offer(_request(1), now=1.0, backlog=0)
    batch = batcher.flush_due(now=5.0, request_id=0)
    assert batch is not None and batch.cause == "linger"
    assert len(batch) == 2 and batch.oldest_wait_ms == 5.0
    # Request 1 left with that batch; its own timer is now stale.
    assert batcher.flush_due(now=6.0, request_id=1) is None


def test_drain_empties_the_queue_in_chunks():
    batcher = BoundedBatcher(BatchPolicy(max_batch=2, queue_bound=8))
    for i in range(5):
        batcher.offer(_request(i), now=0.0, backlog=0)
    batches = batcher.drain(now=1.0)
    assert [len(b) for b in batches] == [2, 2, 1]
    assert all(b.cause == "drain" for b in batches)
    assert batcher.depth() == 0


def test_result_cache_lru_evicts_least_recently_hit():
    cache = ResultCache(capacity=2)
    cache.put("a", 0.1)
    cache.put("b", 0.2)
    assert cache.get("a") == 0.1  # refresh "a"
    cache.put("c", 0.3)  # evicts "b", the stalest
    assert cache.get("b") is None
    assert cache.get("a") == 0.1 and cache.get("c") == 0.3
    assert cache.evictions == 1


# ----------------------------------------------------------------------
# end-to-end: determinism, cache effect, overload
# ----------------------------------------------------------------------
def test_bench_double_run_is_byte_identical(bench):
    again = run_bench(SMALL_CONFIG)
    assert serving_report_json(again) == serving_report_json(bench)


def test_a_serving_bench_draws_each_input_once(monkeypatch):
    """The three scenarios read one source: every request-path stream is
    drawn once, the arrival stream once per arrival process (primary and
    no_cache share one, overload has its own), and each distinct
    architecture is hashed once.  Each engine drawing and planning for
    itself made 3 draws of every stream and one digest per architecture
    per engine."""
    draws, digests = [], []
    fresh_generator = SeedSequenceTree.fresh_generator

    def counted_draw(self, name):
        draws.append(name)
        return fresh_generator(self, name)

    def counted_digest(space_name, subnet):
        digests.append(subnet.choices)
        return subnet_digest(space_name, subnet)

    monkeypatch.setattr(SeedSequenceTree, "fresh_generator", counted_draw)
    monkeypatch.setattr(frontend, "subnet_digest", counted_digest)
    run_bench(SMALL_CONFIG)
    for stream in ("serving-choices", "serving-mix", "serving-prefixes"):
        assert draws.count(stream) == 1, stream
    assert draws.count("serving-arrivals") == 2
    spec = ServingSpec.from_payload(SMALL_CONFIG)
    space = ServingEngine(spec).space
    requests = RequestDraws(spec.workload, space).requests(spec.workload)
    distinct = {r.subnet.choices for r in requests}
    assert sorted(digests) == sorted(distinct)


@pytest.mark.parametrize(
    "change",
    [
        {"space_overrides": {"num_blocks": 5, "functional_width": 8}},
        {"seed": 7},
        {"requests": 61},
        {"skew": 0.5},
        {"hot_prefixes": 2},
        {"prefix_blocks": 2},
        {"repeat_fraction": 0.5},
        {"num_gpus": 1},
        {"eval_batch": 8},
    ],
    ids=lambda change: next(iter(change)),
)
def test_an_engine_refuses_a_source_for_another_deployment(change):
    inputs = ServingInputs(ServingSpec.from_payload(SMALL_CONFIG))
    with pytest.raises(ValueError, match="another deployment"):
        ServingEngine(ServingSpec.from_payload({**SMALL_CONFIG, **change}), inputs=inputs)
    # what the source does not depend on may differ: arrivals, policy, caches
    other = {"rate_rps": 7.0, "arrival": "bursty", "max_batch": 2, "result_entries": 0}
    ServingEngine(ServingSpec.from_payload({**SMALL_CONFIG, **other}), inputs=inputs)


def test_accounting_tiles_the_workload(bench):
    for name in ("primary", "no_cache", "overload"):
        scenario = bench[name]
        assert scenario["completed"] + scenario["shed"] == scenario["requests"]


def test_cache_strictly_raises_hit_rate_and_lowers_p99(bench):
    assert bench["primary"]["hit_rate"] > bench["no_cache"]["hit_rate"]
    assert (
        bench["primary"]["latency_ms"]["p99"]
        < bench["no_cache"]["latency_ms"]["p99"]
    )


def test_overload_sheds_and_admitted_requests_meet_slo(bench):
    overload = bench["overload"]
    assert overload["shed"] > 0
    assert overload["slo_attainment"] == 1.0
    assert overload["latency_ms"]["max"] <= overload["slo_ms"]


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_property_replay_is_byte_identical_even_under_shedding(seed):
    # Heavily overloaded on purpose: every seed sheds, and the shed
    # decisions themselves must replay bitwise.
    payload = dict(
        SMALL_CONFIG, requests=40, rate_rps=1000.0, seed=seed
    )
    spec = ServingSpec.from_payload(payload)
    first = ServingEngine(spec).run().scenario_report()
    second = ServingEngine(spec).run().scenario_report()
    assert first["shed"] > 0
    assert serving_report_json(first) == serving_report_json(second)


# ----------------------------------------------------------------------
# trace events
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def overload_result():
    payload = dict(SMALL_CONFIG, rate_rps=640.0)
    return ServingEngine(ServingSpec.from_payload(payload)).run()


def test_serving_trace_schema_validates(overload_result):
    assert validate_trace(overload_result.trace) == []


def test_serving_trace_carries_the_lifecycle_kinds(overload_result):
    kinds = list(overload_result.trace.event_counts())
    for kind in (
        "request_arrive",
        "request_admit",
        "request_shed",
        "batch_form",
        "cache_hit",
        "cache_miss",
    ):
        assert kind in kinds, f"missing {kind}"


def test_shed_events_match_the_records(overload_result):
    shed_events = list(events_of(overload_result.trace, "request_shed"))
    shed_records = [r for r in overload_result.records if r.outcome == "shed"]
    assert len(shed_events) == len(shed_records) > 0
    assert [e.subnet_id for e in shed_events] == [
        r.request_id for r in shed_records
    ]


# ----------------------------------------------------------------------
# CLI + config validation
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_keys():
    with pytest.raises(ConfigError, match=r"serving: unknown keys \['spaec'\].*'space'"):
        ServingSpec.from_payload({"spaec": "NLP.c3"})


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_linger_ms", float("nan")),  # was: the queue's "cannot schedule at nan"
        ("max_linger_ms", float("inf")),  # was: the virtual clock parked at +inf
        ("max_linger_ms", -1.0),
        ("eval_batch", 0),  # was: accepted, zero-sample requests scored
        ("slo_ms", float("nan")),  # was: accepted, attainment silently 0.0
        ("slo_ms", float("inf")),
        ("slo_ms", 0.0),
    ],
)
def test_spec_rejects_non_finite_and_empty_timing(key, value):
    with pytest.raises(ConfigError, match=rf"serving: {key} must be"):
        ServingSpec.from_payload({**SMALL_CONFIG, key: value})
    if key == "max_linger_ms":
        with pytest.raises(ConfigError, match="max_linger_ms"):
            BatchPolicy(max_linger_ms=value).validate()


def test_second_run_is_refused_before_it_touches_the_first(bench):
    """Was: records overwritten with 'pending' ones, then the queue's bare
    ``ValueError("cannot schedule at …: must be >= now")``."""
    from repro.errors import ServiceError
    from repro.serving.frontend import ServingResult

    engine = ServingEngine(ServingSpec.from_payload(SMALL_CONFIG))
    report = engine.run().scenario_report()
    assert report == bench["primary"]
    records, events, now = list(engine.records), len(engine.trace.events), engine.sim.now
    with pytest.raises(ServiceError, match="already ran"):
        engine.run()
    assert engine.records == records and all(
        record.outcome != "pending" for record in engine.records
    )
    assert (len(engine.trace.events), engine.sim.now, len(engine.sim.queue)) == (events, now, 0)
    assert ServingResult(engine).scenario_report() == report


def test_cli_bench_serving_writes_canonical_json(tmp_path, capsys):
    from repro.cli import main

    config = tmp_path / "serving.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    out = tmp_path / "BENCH_serving.json"
    assert main(["bench-serving", str(config), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["benchmark"] == "serving"
    assert out.read_text() == serving_report_json(payload)
    text = capsys.readouterr().out
    assert "Serving bench" in text and "cache effect" in text


# ----------------------------------------------------------------------
# peek_residency: a pure observation
# ----------------------------------------------------------------------
def test_peek_residency_has_no_side_effects(tiny_supernet):
    engine = CopyEngine(gpu_id=0, bandwidth_bytes_per_ms=1_000_000.0)
    capacity = 4 * tiny_supernet.profile((0, 0)).param_bytes
    manager = StageContextManager(
        0, tiny_supernet, engine, capacity_bytes=capacity
    )
    ready = manager.prefetch([(0, 0)], now=0.0)
    before = (
        manager.hits,
        manager.misses,
        manager.fetch_bytes,
        manager.prefetch_requests,
    )
    # In flight at t=0, resident once the copy lands.
    assert peek_residency(manager, [(0, 0), (1, 0)], now=0.0) == (0, 2)
    assert peek_residency(manager, [(0, 0), (1, 0)], now=ready) == (1, 1)
    after = (
        manager.hits,
        manager.misses,
        manager.fetch_bytes,
        manager.prefetch_requests,
    )
    assert after == before
    assert not is_resident(manager, (1, 0), now=ready)  # no fetch started


def test_repeated_request_payloads_share_one_attrs_object(attrs_census):
    """On the primary scenario, each kind whose payload repeats holds
    one attrs tuple per distinct value: a tuple per row made the trace's
    footprint grow with requests rather than with distinct facts."""
    engine = ServingEngine(ServingSpec.from_payload(SMALL_CONFIG))
    engine.run()
    for kind in ("cache_access", "request_arrive", "cache_miss", "request_admit"):
        rows, objects, values = attrs_census(engine.trace, kind)
        assert objects <= values < rows, kind


def test_a_finished_engine_is_freed_by_reference_counting():
    """No cycle holds a finished engine: its manager's clock refers to
    the simulator, not to the engine, so a bench that keeps only each
    scenario's report frees that scenario's trace at once."""
    gc.collect()
    gc.disable()
    try:
        engine = ServingEngine(ServingSpec.from_payload(SMALL_CONFIG))
        engine.run()
        trace = weakref.ref(engine.trace)
        del engine
        assert trace() is None
    finally:
        gc.enable()
