"""What-if projection: lower bounds, ranking, and the ASP acceptance gate.

The replay scenarios are monotone relaxations of the observed task DAG,
so every projection must come in at or below the measured makespan.  The
``no_csp_constraint`` scenario is held to the paper-level acceptance
criterion: it must land within 5% of an *actually simulated* ASP run on
the same stream — the emulated dispatch is a faithful stand-in for the
engine's, not a loose analytic guess.
"""

import json

import pytest

from repro.baselines import naspipe, pipedream
from repro.engines.pipeline import PipelineEngine
from repro.experiments.common import ExperimentScale, make_stream
from repro.obs import SCENARIOS, what_if_report
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

_EPS = 1e-6


def _run(supernet, config, count=8, gpus=2, batch=16, seed=7):
    stream = SubnetStream.sample(supernet.space, SeedSequenceTree(seed), count)
    engine = PipelineEngine(
        supernet, stream, config, ClusterSpec(num_gpus=gpus), batch=batch
    )
    return engine.run()


# ----------------------------------------------------------------------
# lower-bound property
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "config", [naspipe(), pipedream()], ids=lambda c: c.name
)
@pytest.mark.parametrize("gpus", [2, 4])
def test_every_replay_scenario_is_a_lower_bound(tiny_supernet, config, gpus):
    result = _run(tiny_supernet, config, gpus=gpus)
    measured = result.trace.makespan
    scenarios = what_if_report(result.trace)["scenarios"]
    for scenario in SCENARIOS:
        projected = scenarios[scenario]["projected_makespan_ms"]
        assert projected <= measured + _EPS, (scenario, projected, measured)
        assert projected > 0


def test_stall_relaxations_never_beat_the_combined_one(small_supernet):
    """``perfect_predictor`` drops a superset of ``zero_fetch_stalls``'s
    stall classes, so it can only project lower."""
    result = _run(
        small_supernet, naspipe(cache_subnets=1.0, predictor=False),
        count=8, gpus=4,
    )
    projected = {
        name: entry["projected_makespan_ms"]
        for name, entry in what_if_report(result.trace)["scenarios"].items()
    }
    zero_fetch = projected["zero_fetch_stalls"]
    assert projected["perfect_predictor"] <= zero_fetch + _EPS
    assert zero_fetch <= projected["as_scheduled"] + _EPS


# ----------------------------------------------------------------------
# report shape + determinism
# ----------------------------------------------------------------------
def test_what_if_report_structure_and_ranking(tiny_supernet):
    result = _run(tiny_supernet, naspipe())
    report = what_if_report(result.trace)
    assert report["schema"] == 1
    assert report["measured_makespan_ms"] == pytest.approx(
        result.trace.makespan
    )
    assert set(report["scenarios"]) == set(SCENARIOS)
    # key order is sorted — part of the byte-determinism contract
    assert list(report["scenarios"]) == sorted(report["scenarios"])
    for name, entry in report["scenarios"].items():
        assert entry["projected_makespan_ms"] <= result.trace.makespan + _EPS
        assert entry["savings_ms"] == pytest.approx(
            result.trace.makespan - entry["projected_makespan_ms"]
        )
    # ranked covers exactly the relaxations, best savings first
    assert sorted(report["ranked"]) == sorted(
        name for name in SCENARIOS if name != "as_scheduled"
    )
    savings = [
        report["scenarios"][name]["savings_ms"] for name in report["ranked"]
    ]
    assert savings == sorted(savings, reverse=True)


def test_what_if_report_is_byte_deterministic(tiny_supernet):
    first = what_if_report(_run(tiny_supernet, naspipe()).trace)
    second = what_if_report(_run(tiny_supernet, naspipe()).trace)
    dumps = lambda payload: json.dumps(  # noqa: E731
        payload, sort_keys=True, separators=(",", ":")
    )
    assert dumps(first) == dumps(second)


# ----------------------------------------------------------------------
# acceptance: the ASP bound tracks a real ASP simulation within 5%
# ----------------------------------------------------------------------
def test_no_csp_constraint_matches_simulated_asp_within_5pct():
    """Same supernet, same stream, 4 GPUs: project the CSP run's ASP
    bound and compare against an actually simulated ``sync="asp"`` run.
    Durations depend only on (subnet, stage, direction, config shape),
    so the two runs price identical task sets."""
    scale = ExperimentScale(subnets=12, num_gpus=4, seed=2022)
    space = get_search_space("NLP.c3")
    supernet = Supernet(space)
    cluster = ClusterSpec(num_gpus=4)

    csp_stream = make_stream("NLP.c3", scale, salt="NLP.c3/NASPipe")
    asp_stream = make_stream("NLP.c3", scale, salt="NLP.c3/NASPipe")
    csp = PipelineEngine(
        supernet, csp_stream, naspipe(), cluster, batch=32
    ).run()
    asp = PipelineEngine(
        Supernet(space),
        asp_stream,
        naspipe(
            name="NASPipe-asp", sync="asp", context="full", predictor=False
        ),
        cluster,
        batch=32,
    ).run()

    report = what_if_report(csp.trace)
    projected = report["scenarios"]["no_csp_constraint"]["projected_makespan_ms"]
    assert asp.makespan_ms > 0
    relative_error = abs(projected - asp.makespan_ms) / asp.makespan_ms
    assert relative_error < 0.05, (projected, asp.makespan_ms)

