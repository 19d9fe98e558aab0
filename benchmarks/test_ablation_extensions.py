"""Extension ablations beyond the paper's Figure 6 (DESIGN.md §6).

Design-choice sweeps: predictor lookahead depth, context cache capacity,
SSP staleness, and the dependency-DAG bound comparison of uniform vs
generational streams.
"""

from repro.baselines import naspipe, ssp
from repro.engines.pipeline import PipelineEngine
from repro.experiments import dag_bound
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

from conftest import run_once

_SPACE = "NLP.c2"


def _run_config(config, subnets=100, gpus=8, seed=2022):
    space = get_search_space(_SPACE)
    supernet = Supernet(space)
    stream = SubnetStream.sample_generational(
        space, SeedSequenceTree(seed), subnets
    )
    engine = PipelineEngine(
        supernet, stream, config, ClusterSpec(num_gpus=gpus), batch=192
    )
    return engine.run()


def test_predictor_depth_improves_cache_hit(benchmark):
    def sweep():
        return {
            depth: _run_config(naspipe(predictor_depth=depth))
            for depth in (1, 2, 4)
        }

    results = run_once(benchmark, sweep)
    hits = {depth: result.cache_hit_rate for depth, result in results.items()}
    # Every depth keeps the cache effective; the paper's depth 2 sits
    # within a few points of the best.  (Depth 4 can *pollute* the
    # bounded cache with speculative fetches — a finding worth keeping:
    # deeper lookahead is not free.)
    assert all(rate > 0.6 for rate in hits.values())
    assert hits[2] >= max(hits.values()) - 0.05
    print()
    for depth, result in results.items():
        print(f"depth={depth}: hit={hits[depth]:.3f} "
              f"bubble={result.bubble_ratio:.3f}")


def test_cache_capacity_sweep(benchmark):
    def sweep():
        return {
            multiple: _run_config(naspipe(cache_subnets=multiple))
            for multiple in (1.0, 3.0, 6.0)
        }

    results = run_once(benchmark, sweep)
    hits = {m: r.cache_hit_rate for m, r in results.items()}
    # The paper's 3x cache buys a large hit-rate jump over 1x; beyond
    # that, returns diminish.
    assert hits[3.0] > hits[1.0]
    assert hits[6.0] >= hits[3.0] - 0.02
    print()
    for multiple, result in results.items():
        print(f"cache={multiple:.0f}x subnet: hit={hits[multiple]:.3f}")


def test_ssp_staleness_sweep(benchmark):
    def sweep():
        return {s: _run_config(ssp(s)) for s in (0, 2, 8)}

    results = run_once(benchmark, sweep)
    # More staleness tolerance = more overlap = shorter makespan; yet no
    # staleness bound recovers reproducibility (see test_reproducibility).
    assert results[8].makespan_ms < results[0].makespan_ms
    print()
    for staleness, result in results.items():
        print(f"staleness={staleness}: makespan={result.makespan_ms:.0f} ms "
              f"bubble={result.bubble_ratio:.2f}")


def test_dag_bound_engine_near_optimal(benchmark):
    """The CSP engine tracks the contention-free dependency-DAG bound —
    evidence the scheduler, not the implementation, sets the ceiling."""
    def compute():
        bound = dag_bound.run(space_names=[_SPACE], subnets=200)
        uniform = next(b for b in bound if b.stream_kind == "uniform-SPOS")
        space = get_search_space(_SPACE)
        supernet = Supernet(space)
        stream = SubnetStream.sample(space, SeedSequenceTree(2022), 200)
        engine = PipelineEngine(
            supernet, stream, naspipe(), ClusterSpec(num_gpus=8), batch=192
        )
        result = engine.run()
        measured = result.makespan_ms / result.subnets_completed
        return uniform.per_subnet_ms, measured

    bound_ms, measured_ms = run_once(benchmark, compute)
    assert measured_ms < bound_ms * 1.5
    print()
    print(f"DAG bound {bound_ms:.0f} ms/subnet, engine {measured_ms:.0f} ms/subnet")


def test_mirror_vs_migrate(benchmark):
    """§2.3 quantified: active mirroring vs on-demand migration for
    per-subnet balanced partitions."""
    def both():
        return (
            _run_config(naspipe(mirror_mode="mirror")),
            _run_config(naspipe(mirror_mode="migrate")),
        )

    mirror, migrate = run_once(benchmark, both)
    speedup = migrate.makespan_ms / mirror.makespan_ms
    assert speedup > 1.15
    print()
    print(f"mirror : {mirror.makespan_ms:9.0f} ms  bubble={mirror.bubble_ratio:.2f}")
    print(f"migrate: {migrate.makespan_ms:9.0f} ms  bubble={migrate.bubble_ratio:.2f}")
    print(f"mirroring speedup over on-demand migration: {speedup:.2f}x")
