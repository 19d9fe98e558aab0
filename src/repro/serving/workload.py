"""Seeded open-loop load generation for subnet-evaluation serving.

An *open-loop* generator emits requests on a fixed arrival process
regardless of how the server keeps up — the standard way to measure
latency under load without coordinated omission.  Arrivals are either
Poisson (exponential inter-arrival at ``rate_rps``) or bursty (the same
Poisson process whose rate alternates between ``rate_rps ×
burst_factor`` and a matching low phase, period ``burst_period_ms``).

Two knobs shape locality, mirroring how real search clients behave:

* **shared-prefix skew** — with probability ``skew`` a request's first
  ``prefix_blocks`` choices come from one of ``hot_prefixes`` popular
  sub-paths (GreedyNAS keeps a pool of promising partial paths), so
  consecutive requests re-use the same early layer blocks;
* **repeats** — with probability ``repeat_fraction`` a request re-issues
  a previously generated subnet verbatim (many users querying the same
  popular architecture), which is what a digest-keyed result cache can
  serve outright.

All randomness flows through named :class:`~repro.seeding.
SeedSequenceTree` streams, so the request sequence — ids, arrival
times, choices — is a pure function of the spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigError
from repro.seeding import SeedSequenceTree
from repro.supernet.search_space import SearchSpace
from repro.supernet.subnet import Subnet

__all__ = ["EvalRequest", "RequestDraws", "WorkloadSpec", "generate_requests", "path_key"]


@dataclass(frozen=True)
class EvalRequest:
    """One subnet-evaluation query: who, when, and which path."""

    request_id: int
    arrival_ms: float
    subnet: Subnet


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a serving workload (see module docstring)."""

    num_requests: int = 200
    arrival: str = "poisson"  # "poisson" | "bursty"
    rate_rps: float = 50.0  # mean requests per virtual second
    burst_factor: float = 4.0  # bursty: high-phase rate multiplier
    burst_period_ms: float = 200.0  # bursty: length of one phase
    skew: float = 0.6  # P(hot shared prefix)
    hot_prefixes: int = 4  # size of the popular-prefix pool
    prefix_blocks: int = 8  # leading blocks a prefix covers
    repeat_fraction: float = 0.25  # P(verbatim repeat of an earlier subnet)
    seed: int = 2022

    def validate(self, space: SearchSpace) -> None:
        if self.num_requests <= 0:
            raise ConfigError(f"num_requests must be > 0, got {self.num_requests}")
        if self.arrival not in ("poisson", "bursty"):
            raise ConfigError(f"unknown arrival process {self.arrival!r}")
        if self.rate_rps <= 0:
            raise ConfigError(f"rate_rps must be > 0, got {self.rate_rps}")
        if not 0.0 <= self.skew <= 1.0:
            raise ConfigError(f"skew must be in [0, 1], got {self.skew}")
        if not 0.0 <= self.repeat_fraction <= 1.0:
            raise ConfigError(
                f"repeat_fraction must be in [0, 1], got {self.repeat_fraction}"
            )
        if self.prefix_blocks > space.num_blocks:
            raise ConfigError(
                f"prefix_blocks {self.prefix_blocks} exceeds the space's "
                f"{space.num_blocks} blocks"
            )
        if self.skew > 0 and self.hot_prefixes <= 0:
            raise ConfigError("skew > 0 requires hot_prefixes >= 1")


#: what the request paths read, with the space; the arrival times read
#: ``seed`` and ``num_requests`` (both here) and ``_ARRIVAL_FIELDS``
_PATH_FIELDS = (
    "seed", "num_requests", "skew", "hot_prefixes", "prefix_blocks", "repeat_fraction",
)
_ARRIVAL_FIELDS = ("arrival", "rate_rps", "burst_factor", "burst_period_ms")


def path_key(spec: WorkloadSpec) -> Tuple:
    """The fields of ``spec`` its request paths depend on (with the space)."""
    return tuple(getattr(spec, name) for name in _PATH_FIELDS)


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


def _request_paths(
    spec: WorkloadSpec, space: SearchSpace, seeds: SeedSequenceTree
) -> List[Subnet]:
    """Request ``i``'s architecture, as ``Subnet(i, choices)``.

    Reads no arrival field: the choice, mix and prefix streams never see
    the arrival stream, so workloads that differ only in their arrival
    process ask for the same paths.
    """
    prefixes = _hot_prefix_pool(spec, space, seeds)
    choices_rng = seeds.fresh_generator("serving-choices")
    mix_rng = seeds.fresh_generator("serving-mix")

    subnets: List[Subnet] = []
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
        subnets.append(Subnet(request_id, choices))
    return subnets


class RequestDraws:
    """One workload's requests over one space: the paths drawn once, the
    arrival times once per run of callers asking for one arrival process.

    The paths are drawn on the first :meth:`requests` call, the arrival
    times when a caller asks for another arrival process than the last
    one.  Every workload asked for must share the paths' fields
    (:func:`path_key`), so it differs from the first only in how its
    requests arrive, and it is handed the same frozen
    :class:`~repro.supernet.subnet.Subnet` objects.  Only the last
    process's list is kept: callers ask in runs (a bench's primary and
    no_cache, then overload), and a superseded list would only hold
    memory.
    """

    def __init__(self, spec: WorkloadSpec, space: SearchSpace) -> None:
        self.space = space
        self.path_key = path_key(spec)
        self._seeds = SeedSequenceTree(spec.seed)
        self._subnets: List[Subnet] = []
        self._arrival: Tuple = ()
        self._requests: List[EvalRequest] = []

    def requests(self, spec: WorkloadSpec) -> List[EvalRequest]:
        """The request sequence of ``spec`` (handed to every caller of the
        same arrival process: read it, do not change it)."""
        if path_key(spec) != self.path_key:
            raise ValueError(
                "request draws derived for another workload: "
                f"{', '.join(_PATH_FIELDS)} must match"
            )
        spec.validate(self.space)
        arrival = tuple(getattr(spec, name) for name in _ARRIVAL_FIELDS)
        if arrival != self._arrival:
            if not self._subnets:
                self._subnets = _request_paths(spec, self.space, self._seeds)
            times = _arrival_times(spec, self._seeds)
            self._arrival, self._requests = arrival, [
                EvalRequest(subnet.subnet_id, arrival_ms, subnet)
                for subnet, arrival_ms in zip(self._subnets, times)
            ]
        return self._requests


def generate_requests(
    spec: WorkloadSpec, space: SearchSpace
) -> List[EvalRequest]:
    """Materialise the full request sequence for ``spec`` over ``space``.

    Deterministic: every draw comes from a named seed stream, so two
    calls with equal spec and space yield identical request lists
    (ids, times, and choice tuples all bitwise equal).
    """
    return RequestDraws(spec, space).requests(spec)
