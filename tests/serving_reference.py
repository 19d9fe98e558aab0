"""The serving workload draw and plan builder as they were before a bench
shared one seeded input source, as a reference.

Through commit ``9c57086`` every :class:`~repro.serving.frontend.
ServingEngine` drew its own request list (``generate_requests``: arrival
times, hot-prefix pool, choices and mix, all from one seed tree per call)
and interned its own per-architecture plans (``ServingEngine._plan``).
This module is that code, copied verbatim (``_plan`` as the one method of
a planner holding the attributes it read from the engine), so
``tests/test_serving_reference.py`` can hold the shared source to it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.baselines import resolve_target
from repro.nn.parameter_store import LayerId
from repro.partition.static import static_partition_for_space
from repro.seeding import SeedSequenceTree
from repro.serving.cache import subnet_digest
from repro.serving.frontend import _ArchPlan
from repro.serving.workload import EvalRequest, WorkloadSpec
from repro.supernet.search_space import SearchSpace
from repro.supernet.subnet import Subnet
from repro.supernet.supernet import Supernet


def _arrival_times(spec: WorkloadSpec, seeds: SeedSequenceTree) -> List[float]:
    """Open-loop arrival instants (virtual ms), strictly increasing."""
    rng = seeds.fresh_generator("serving-arrivals")
    mean_gap_ms = 1000.0 / spec.rate_rps
    times: List[float] = []
    now = 0.0
    for _ in range(spec.num_requests):
        gap = float(rng.exponential(mean_gap_ms))
        if spec.arrival == "bursty":
            # Alternate phases: high rate (gap / burst_factor) then low.
            # The low phase stretches gaps so the *mean* rate stays at
            # rate_rps: with factor f, low-phase gaps are scaled by
            # (2f - 1) / f, making the two-phase average exactly 2.
            phase = int(now // spec.burst_period_ms) % 2
            if phase == 0:
                gap /= spec.burst_factor
            else:
                gap *= (2.0 * spec.burst_factor - 1.0) / spec.burst_factor
        now += gap
        times.append(now)
    return times


def _hot_prefix_pool(
    spec: WorkloadSpec, space: SearchSpace, seeds: SeedSequenceTree
) -> List[Tuple[int, ...]]:
    """The popular partial paths shared-prefix requests draw from."""
    rng = seeds.fresh_generator("serving-prefixes")
    return [
        tuple(
            int(rng.integers(0, space.choices_per_block))
            for _ in range(spec.prefix_blocks)
        )
        for _ in range(spec.hot_prefixes)
    ]


def generate_requests(
    spec: WorkloadSpec, space: SearchSpace
) -> List[EvalRequest]:
    """Materialise the full request sequence for ``spec`` over ``space``.

    Deterministic: every draw comes from a named seed stream, so two
    calls with equal spec and space yield identical request lists
    (ids, times, and choice tuples all bitwise equal).
    """
    spec.validate(space)
    seeds = SeedSequenceTree(spec.seed)
    times = _arrival_times(spec, seeds)
    prefixes = _hot_prefix_pool(spec, space, seeds)
    choices_rng = seeds.fresh_generator("serving-choices")
    mix_rng = seeds.fresh_generator("serving-mix")

    requests: List[EvalRequest] = []
    history: List[Tuple[int, ...]] = []
    for request_id in range(spec.num_requests):
        repeat = (
            history
            and float(mix_rng.random()) < spec.repeat_fraction
        )
        if repeat:
            choices = history[int(mix_rng.integers(0, len(history)))]
        else:
            hot = spec.skew > 0 and float(mix_rng.random()) < spec.skew
            prefix: Tuple[int, ...] = ()
            if hot:
                prefix = prefixes[int(mix_rng.integers(0, len(prefixes)))]
            tail = tuple(
                int(choices_rng.integers(0, space.choices_per_block))
                for _ in range(space.num_blocks - len(prefix))
            )
            choices = prefix + tail
        history.append(choices)
        requests.append(
            EvalRequest(
                request_id=request_id,
                arrival_ms=times[request_id],
                subnet=Subnet(request_id, choices),
            )
        )
    return requests


class ReferencePlanner:
    """The engine state ``_plan`` read, built as the engine built it."""

    def __init__(self, spec) -> None:
        self.spec = spec
        self.space, _system = resolve_target(
            spec.space, spec.space_overrides, path="serving"
        )
        self.supernet = Supernet(self.space)
        self._partition = static_partition_for_space(self.supernet, spec.num_gpus)
        self._plans: Dict[Tuple[int, ...], _ArchPlan] = {}
        self._layer_fwd_ms: Dict[LayerId, float] = {}

    def _plan(self, subnet: Subnet) -> _ArchPlan:
        """The plan of ``subnet``'s architecture, built on first sight."""
        plan = self._plans.get(subnet.choices)
        if plan is None:
            layers = subnet.layer_ids()
            fwd_ms = self._layer_fwd_ms
            for layer in layers:
                if layer not in fwd_ms:
                    fwd_ms[layer] = self.supernet.layer_fwd_ms(
                        layer, self.spec.eval_batch
                    )
            shares = tuple(layers[start:stop] for start, stop in self._partition)
            plan = self._plans[subnet.choices] = _ArchPlan(
                subnet_digest(self.space.name, subnet),
                shares,
                # builtin sum over the same floats in the same order as
                # summing layer_fwd_ms() calls: done_ms is pinned bitwise
                tuple(sum(map(fwd_ms.__getitem__, share)) for share in shares),
            )
        return plan
