"""Long-stream endurance bench: 1000 subnets through the CSP pipeline.

Exercises what short runs cannot: the elimination scheme must keep the
dependency tracker's state bounded (the paper's complexity argument), throughput must hold steady between the first and second half
(no degradation with stream position), and the ranking/ordering
invariants must survive at scale.
"""

from repro.baselines import naspipe
from repro.engines.pipeline import PipelineEngine
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

from conftest import ScheduleStopwatch, run_once

_SUBNETS = 1000


def test_thousand_subnet_stream(benchmark):
    def long_run():
        space = get_search_space("NLP.c2")
        supernet = Supernet(space)
        stream = SubnetStream.sample_generational(
            space, SeedSequenceTree(2022), _SUBNETS
        )
        engine = PipelineEngine(
            supernet, stream, naspipe(), ClusterSpec(num_gpus=8), batch=192
        )
        engine.policy.scheduler = ScheduleStopwatch(engine.policy.scheduler)
        result = engine.run()
        return engine, result

    engine, result = run_once(benchmark, long_run)
    assert result.subnets_completed == _SUBNETS

    # Elimination kept the tracker flat: every finished subnet left its
    # subnet table, its unreleased-user lists and its readiness index.
    tracker = engine.policy.tracker
    assert tracker._subnets == {} and tracker._unreleased == {}
    assert tracker._waiters == {}
    assert all(not scope.layers for scope in tracker._scopes.values())

    # Throughput steady: second-half completion rate within 15% of the
    # first half's.
    times = engine.trace.subnet_completion_times
    half = _SUBNETS // 2
    first_half = times[half - 1] - times[24]
    second_half = times[_SUBNETS - 1] - times[half - 1]
    assert 0.85 < second_half / first_half < 1.18

    # Scheduler cost stayed negligible overall (paper: <0.01 s/call).
    scheduler = engine.policy.scheduler
    assert scheduler.mean_call_s < 0.01

    print()
    print(result.summary())
    print(f"scheduler: {scheduler.calls} calls, "
          f"{scheduler.mean_call_s * 1e6:.1f} µs/call")
