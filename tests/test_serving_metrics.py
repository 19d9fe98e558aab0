"""Nearest-rank percentile edge cases and serving-report formatting.

The serving benchmark's byte-identity claim rests on percentiles being
pure integer-rank selection (always a measured sample, never an
interpolation), so the boundary arithmetic gets its own test file.
"""

import math

import pytest

from repro.serving.metrics import (
    format_serving_report,
    latency_histogram,
    latency_stats,
    nearest_rank,
    serving_report_json,
)


# ----------------------------------------------------------------------
# nearest_rank: boundaries
# ----------------------------------------------------------------------
def test_single_sample_answers_every_percentile():
    for p in (1, 50, 99, 100):
        assert nearest_rank([7.25], p) == 7.25


def test_wikipedia_worked_example():
    # The canonical nearest-rank example: ranks 2/4/5 for p30/p75/p100.
    values = [15, 20, 35, 40, 50]
    assert nearest_rank(values, 30) == 20
    assert nearest_rank(values, 75) == 40
    assert nearest_rank(values, 100) == 50


def test_exact_boundary_rank_even_n():
    # p50 of n=4: rank = ceil(200/100) = 2 exactly — the *lower* of the
    # two middle samples, where interpolation would invent 2.5.
    assert nearest_rank([1, 2, 3, 4], 50) == 2
    # p25 of n=4 lands exactly on rank 1.
    assert nearest_rank([1, 2, 3, 4], 25) == 1


def test_p100_is_max_and_p1_is_min():
    values = [9.0, 3.0, 5.0, 1.0, 7.0]
    assert nearest_rank(values, 100) == 9.0
    assert nearest_rank(values, 1) == 1.0


def test_ties_collapse_to_the_tied_value():
    assert nearest_rank([4, 4, 4, 4], 99) == 4
    # Ties straddling the rank boundary still return the tied value.
    assert nearest_rank([1, 2, 2, 2, 3], 50) == 2


def test_input_order_is_irrelevant():
    assert nearest_rank([50, 15, 40, 20, 35], 30) == 20


def test_matches_ceil_reference_on_a_grid():
    values = list(range(1, 14))  # n = 13, already sorted, value == rank
    for p in range(1, 101):
        rank = math.ceil(p * len(values) / 100)
        assert nearest_rank(values, p) == values[rank - 1]


def test_result_is_always_a_member_of_the_sample():
    values = [0.3, 11.7, 2.5, 8.125, 5.0625]
    for p in (1, 33, 50, 66, 95, 99, 100):
        assert nearest_rank(values, p) in values


# ----------------------------------------------------------------------
# nearest_rank: rejected inputs
# ----------------------------------------------------------------------
def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_float_percentile_rejected():
    # Float percentiles invite the interpolation ambiguity the whole
    # design avoids; the API forces integers.
    with pytest.raises(TypeError):
        nearest_rank([1, 2, 3], 99.9)


@pytest.mark.parametrize("percentile", [0, -1, 101, 1000])
def test_out_of_range_percentile_rejected(percentile):
    with pytest.raises(ValueError):
        nearest_rank([1, 2, 3], percentile)


# ----------------------------------------------------------------------
# latency_stats / report encoding
# ----------------------------------------------------------------------
def test_latency_stats_empty_is_all_zero():
    assert latency_stats([]) == {
        "p50": 0.0,
        "p95": 0.0,
        "p99": 0.0,
        "mean": 0.0,
        "max": 0.0,
    }


def test_latency_stats_fields():
    stats = latency_stats([10.0, 20.0, 30.0, 40.0])
    assert stats["p50"] == 20.0
    assert stats["p95"] == stats["p99"] == stats["max"] == 40.0
    assert stats["mean"] == 25.0


def test_report_json_is_canonical():
    payload = {"b": 1, "a": {"z": 2, "y": 3}}
    encoded = serving_report_json(payload)
    assert encoded.endswith("\n")
    assert encoded.index('"a"') < encoded.index('"b"')
    assert serving_report_json(payload) == encoded


def test_format_report_mentions_cache_effect():
    scenario = {
        "requests": 10,
        "completed": 10,
        "shed": 0,
        "shed_rate": 0.0,
        "latency_ms": {"p50": 1.0, "p95": 2.0, "p99": 2.0, "max": 2.0},
        "throughput_rps": 100.0,
        "slo_ms": 50.0,
        "slo_attainment": 1.0,
        "result_hit_rate": 0.5,
        "layer_hit_rate": 0.5,
        "hit_rate": 0.5,
    }
    slower = dict(scenario)
    slower["latency_ms"] = {"p50": 2.0, "p95": 4.0, "p99": 4.0, "max": 4.0}
    slower["hit_rate"] = 0.0
    report = {
        "config": {
            "space": "NLP.c3",
            "num_gpus": 4,
            "total_gpus": 8,
            "requests": 10,
            "arrival": "poisson",
        },
        "primary": scenario,
        "no_cache": slower,
    }
    text = format_serving_report(report)
    assert "cache effect" in text
    assert "2.00x" in text


# ----------------------------------------------------------------------
# latency_histogram: shape and consistency with nearest-rank
# ----------------------------------------------------------------------
def test_histogram_counts_sum_to_count():
    values = [3.0, 7.5, 12.0, 40.0, 9999.0]
    hist = latency_histogram(values)
    assert sum(hist["counts"]) == hist["count"] == len(values)
    assert hist["sum_ms"] == sum(values)
    # one overflow bucket past the declared bounds
    assert len(hist["counts"]) == len(hist["buckets_ms"]) + 1
    assert hist["counts"][-1] == 1  # only 9999.0 overflows


def test_histogram_empty_input_is_all_zero():
    hist = latency_histogram([])
    assert hist["count"] == 0
    assert hist["sum_ms"] == 0.0
    assert sum(hist["counts"]) == 0


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        latency_histogram([1.0], buckets=[])
    with pytest.raises(
        ValueError,
        match=r"^histogram buckets must be non-empty and strictly "
        r"ascending, got \[10\.0, 5\.0\]$",
    ):
        latency_histogram([1.0], buckets=[10, 5])
    with pytest.raises(ValueError):
        latency_histogram([1.0], buckets=[5.0, 5.0])


def test_histogram_boundary_value_lands_in_lower_bucket():
    hist = latency_histogram([10.0], buckets=[10.0, 20.0])
    assert hist["counts"] == [1, 0, 0]  # le semantics, like Prometheus


def test_histogram_is_consistent_with_nearest_rank_percentiles():
    # The structural claim: for any percentile p, the nearest-rank
    # value falls in a bucket whose cumulative count reaches rank(p).
    values = [1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0, 64.0, 81.0, 100.0]
    buckets = [5.0, 20.0, 50.0, 90.0]
    hist = latency_histogram(values, buckets=buckets)
    bounds = hist["buckets_ms"] + [math.inf]
    for p in (1, 25, 50, 75, 90, 99, 100):
        value = nearest_rank(values, p)
        rank = -(-p * len(values) // 100)  # ceil(p*n/100)
        bucket = next(i for i, b in enumerate(bounds) if value <= b)
        cumulative = sum(hist["counts"][: bucket + 1])
        assert cumulative >= rank
        # and no earlier bucket already covers the rank while excluding
        # the value (the percentile can't land below its own bucket)
        if bucket > 0:
            assert value > bounds[bucket - 1]
