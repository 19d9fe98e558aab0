"""Chaos sweeps: seeded non-fatal fault storms against the invariant suite."""

from types import SimpleNamespace

import pytest

from repro.baselines import naspipe
from repro.errors import ConfigError
from repro.ft import (
    NONFATAL_KINDS,
    chaos_invariants,
    chaos_sweep,
    format_chaos_report,
    run_chaos_scenario,
    run_uninterrupted,
)
from repro.supernet.search_space import get_search_space


@pytest.fixture(scope="module")
def chaos_space():
    return get_search_space("NLP.c3").scaled(
        name="chaos", num_blocks=8, functional_width=16
    )


@pytest.fixture(scope="module")
def chaos_report(chaos_space):
    return chaos_sweep(
        chaos_space, naspipe(), scenarios=2, gpus=(2, 4), steps=12, seed=11
    )


@pytest.fixture(scope="module")
def small_run(chaos_space):
    return run_uninterrupted(chaos_space, naspipe(), num_gpus=2, steps=10, seed=3)


def test_sweep_passes_every_invariant(chaos_report):
    assert chaos_report["ok"] is True
    assert chaos_report["violations"] == []
    assert chaos_report["total_scenarios"] == 4
    assert all(row["digest_ok"] for row in chaos_report["scenarios"])
    assert all(row["completed"] == 12 for row in chaos_report["scenarios"])
    assert all(row["violations"] == [] for row in chaos_report["scenarios"])
    # an MTBF at 10% of the makespan makes the sweep genuinely hostile
    assert chaos_report["total_faults"] >= 1
    drawn = set()
    for row in chaos_report["scenarios"]:
        drawn |= set(row["fault_kinds"])
    assert drawn <= set(NONFATAL_KINDS)


def test_sweep_is_deterministic(chaos_space, chaos_report):
    again = chaos_sweep(
        chaos_space, naspipe(), scenarios=2, gpus=(2, 4), steps=12, seed=11
    )
    assert again == chaos_report  # same seeds, bit-for-bit the same report


def test_scenario_is_a_repro_case(chaos_space, chaos_report):
    """A failing row's ``(seed, fault_seed, gpus)`` triple must replay it
    exactly; check the contract on a passing row."""
    row = chaos_report["scenarios"][0]  # gpus=2, scenario index 0
    baseline = run_uninterrupted(
        chaos_space, naspipe(), num_gpus=2, steps=12, seed=11
    )
    replayed = run_chaos_scenario(
        chaos_space,
        naspipe(),
        baseline=baseline,
        num_gpus=2,
        steps=12,
        seed=11,
        fault_seed=row["fault_seed"],
        stream_name="chaos/2gpu/0",
    )
    assert replayed == row


def test_invariants_catch_incomplete_and_divergent_runs(chaos_space, small_run):
    other = run_uninterrupted(chaos_space, naspipe(), num_gpus=2, steps=10, seed=4)
    assert chaos_invariants(small_run, small_run, steps=10) == []
    short = chaos_invariants(small_run, small_run, steps=12)
    assert any("completed 10/12" in v for v in short)
    crossed = chaos_invariants(small_run, other, steps=10)
    assert any("digest diverged" in v for v in crossed)
    assert any("losses diverged" in v for v in crossed)


def test_invariants_catch_a_non_finite_event_time(chaos_space, small_run):
    """"Trace schema-valid" is one of the six invariants; an event at a
    NaN instant sorts and subtracts to nonsense downstream and used to
    pass it."""
    tampered = run_uninterrupted(chaos_space, naspipe(), num_gpus=2, steps=10, seed=3)
    assert chaos_invariants(tampered, small_run, steps=10) == []
    tampered.trace.record_event(
        "task_done", float("nan"), stage=0, subnet_id=0, direction="fwd"
    )
    (violation,) = chaos_invariants(tampered, small_run, steps=10)
    assert violation.startswith("trace schema violations (1)")
    assert "task_done: time must be a finite number, got nan" in violation


def test_invariants_flag_cache_blowups(small_run):
    assert small_run.peak_cache_bytes  # cached system: the metric exists
    within = chaos_invariants(
        small_run, small_run, steps=10, capacity_bytes=small_run.peak_cache_bytes
    )
    assert within == []
    # the baseline's own peak widens the allowance (block granularity can
    # put even a fault-free run over raw capacity), so a tiny capacity
    # alone is no violation when the baseline needed the same bytes...
    tolerated = chaos_invariants(
        small_run,
        small_run,
        steps=10,
        capacity_bytes=small_run.peak_cache_bytes // 4,
    )
    assert tolerated == []
    # ...but growth past the margin over both anchors is runaway
    lean_baseline = SimpleNamespace(
        digest=small_run.digest,
        losses=small_run.losses,
        peak_cache_bytes=small_run.peak_cache_bytes // 8,
    )
    blown = chaos_invariants(
        small_run,
        lean_baseline,
        steps=10,
        capacity_bytes=small_run.peak_cache_bytes // 8,
    )
    assert any("peak cache" in v for v in blown)


def test_report_formatting(chaos_report):
    text = format_chaos_report(chaos_report)
    assert "chaos sweep" in text
    assert "PASS" in text
    assert "DIVERGED" not in text
    failing = dict(
        chaos_report,
        violations=["[gpus=2 fault_seed=1] digest diverged"],
        ok=False,
    )
    assert "VIOLATIONS (1)" in format_chaos_report(failing)


# ----------------------------------------------------------------------
# sweep sharding: a parallel run is byte-identical to the serial one
# ----------------------------------------------------------------------
def test_parallel_sweep_matches_serial_exactly(chaos_space, chaos_report):
    parallel = chaos_sweep(
        chaos_space,
        naspipe(),
        scenarios=2,
        gpus=(2, 4),
        steps=12,
        seed=11,
        jobs=2,
    )
    assert parallel == chaos_report


@pytest.mark.parametrize(
    "scenarios,gpus", [(0, (2, 4)), (-1, (2,)), (2, ())]
)
def test_a_sweep_that_would_test_nothing_is_refused(chaos_space, scenarios, gpus):
    """``ok`` over zero rows is vacuous: it must not read as a pass."""
    with pytest.raises(ConfigError, match="scenarios"):
        chaos_sweep(
            chaos_space, naspipe(), scenarios=scenarios, gpus=gpus, steps=12, seed=11
        )


def test_parallel_sweep_preserves_scenario_callback_order(chaos_space):
    report = chaos_sweep(
        chaos_space,
        naspipe(),
        scenarios=2,
        gpus=(4, 2),
        steps=10,
        seed=5,
        jobs=2,
    )
    seen = [(row["num_gpus"], row["fault_seed"]) for row in report["scenarios"]]
    # merged in deterministic (gpu, scenario-index) order, not completion order
    assert seen == [(gpus, 5 * 100_003 + index) for gpus in (4, 2) for index in range(2)]

