"""The six ledger workloads: names, reasons, and seeded input generators.

Pure data, no ``repro`` import: a workload is a name, the reason it
exists, and a function from ``--seed`` to a JSON-serialisable ``inputs``
dict.  The program that runs (``ledger/programs.py``) receives only that
dict — never the workload name — so nothing under ``src/`` can key its
behaviour on which benchmark row it is producing.

The base payloads are the repo's demo configs (``examples/serving_demo.json``,
``examples/chaos_fleet_demo.json``, ``examples/trace_demo.json``) copied
here at the sizes the ledger measures, so that editing an example later
does not silently change what the trajectory's rows mean.
"""

from __future__ import annotations

import copy
import json
from typing import Callable, Dict, List, NamedTuple

__all__ = ["WORKLOADS", "Workload", "canonical", "generate", "names"]

#: PR 6's end-to-end throughput point (``benchmarks/scheduler_baseline.json``
#: ``engine.rows[0]``): the one wall-clock figure the repo ever committed
#: for a whole engine run.  ``csp_dense`` re-runs it in set-up so today's
#: rate continues that series (7.8k -> 10.9k events/s -> now).
HISTORIC_POINT = {
    "space": "NLP.c2",
    "system": "NASPipe",
    "subnets": 96,
    "num_gpus": 8,
    "batch": 32,
    "seed": 2022,
    "expect": {
        "makespan_ms": 19334.02542782906,
        "events": 2976,
        "trace_events": 39019,
    },
}

_SERVING_BASE = {
    "space": "NLP.c3",
    "space_overrides": {"num_blocks": 8, "functional_width": 16},
    "num_gpus": 4,
    "total_gpus": 8,
    "eval_batch": 8,
    "requests": 4000,
    "arrival": "poisson",
    "rate_rps": 30,
    "skew": 0.7,
    "hot_prefixes": 4,
    "prefix_blocks": 6,
    "repeat_fraction": 0.3,
    "max_batch": 8,
    "max_linger_ms": 6.0,
    "queue_bound": 16,
    "result_entries": 256,
    "cache_subnets": 3.0,
    "slo_ms": 400.0,
    "overload_rate_factor": 6.0,
}

_FLEET_BASE = {
    "fleet_slots": [8],
    "scenarios": 8,
    "storm_mtbf_fraction": 0.25,
    "slots_per_node": 4,
    "node_down_weight": 0.25,
    "preempt_outage_ms": 120.0,
    "node_outage_ms": 300.0,
    "quantum": 6,
    "resize_cost_ms": 25.0,
    "max_restarts": 3,
    "requeue_backoff_ms": 25.0,
    "serving": {
        "space": "NLP.c3",
        "space_overrides": {"num_blocks": 8, "functional_width": 16},
        "num_gpus": 2,
        "eval_batch": 8,
        "requests": 80,
        "arrival": "poisson",
        "rate_rps": 50,
        "skew": 0.7,
        "hot_prefixes": 4,
        "prefix_blocks": 6,
        "repeat_fraction": 0.3,
        "max_batch": 8,
        "max_linger_ms": 6.0,
        "queue_bound": 24,
        "result_entries": 256,
        "cache_subnets": 3.0,
        "slo_ms": 400.0,
    },
    "jobs": [
        {
            "name": "elastic-csp",
            "space": "NLP.c3",
            "space_overrides": {"num_blocks": 12, "functional_width": 16},
            "system": "NASPipe",
            "subnets": 14,
            "priority": 2,
            "min_gpus": 2,
            "max_gpus": 4,
        },
        {
            "name": "rigid-pd",
            "space": "CV.c3",
            "space_overrides": {"num_blocks": 8, "functional_width": 16},
            "system": "PipeDream",
            "subnets": 8,
            "priority": 1,
            "min_gpus": 2,
            "max_gpus": 2,
        },
    ],
}


def _pipeline(system: str, subnets: int, seed: int) -> Dict:
    return {
        "space": "NLP.c3",
        "system": system,
        "subnets": subnets,
        "num_gpus": 8,
        "batch": 32,
        "seed": seed,
    }


def _csp_dense(seed: int) -> Dict:
    return {
        "program": "pipeline",
        "pipeline": _pipeline("NASPipe", 384, seed),
        "historic": copy.deepcopy(HISTORIC_POINT),
    }


def _asp_fullctx(seed: int) -> Dict:
    return {"program": "pipeline", "pipeline": _pipeline("PipeDream", 1024, seed)}


def _serving_open(seed: int) -> Dict:
    return {"program": "serving", "payload": {**copy.deepcopy(_SERVING_BASE), "seed": seed}}


def _fleet_storm(seed: int) -> Dict:
    payload = copy.deepcopy(_FLEET_BASE)
    payload["seed"] = seed
    payload["serving"]["seed"] = seed
    for offset, job in enumerate(payload["jobs"]):
        job["seed"] = seed + offset
    return {"program": "fleet", "payload": payload}


def _obs_readback(seed: int) -> Dict:
    return {"program": "readback", "pipeline": _pipeline("NASPipe", 384, seed)}


def _cli_cold(seed: int) -> Dict:
    return {
        "program": "cli",
        "config": {
            "space": "NLP.c3",
            "system": "NASPipe",
            "num_gpus": 4,
            "subnets": 24,
            "batch": 32,
            "seed": seed,
            "label": "ledger-cli-cold",
        },
    }


class Workload(NamedTuple):
    name: str
    #: what one unit of ``work_per_s`` is
    work_unit: str
    #: one line, copied into BENCHMARK.json
    why: str
    generate: Callable[[int], Dict]


WORKLOADS: List[Workload] = [
    Workload(
        "csp_dense",
        "subnet",
        "closed loop, NASPipe CSP on NLP.c3 x 384 subnets x 8 GPUs: densest layer "
        "sharing, so core scheduler/dependency/predictor/context and policy polling dominate",
        _csp_dense,
    ),
    Workload(
        "asp_fullctx",
        "subnet",
        "same engine under PipeDream x 1024 subnets: FIFO + full context bypass core "
        "entirely, so sim queue and engine dispatch dominate; CSP work must not move it",
        _asp_fullctx,
    ),
    Workload(
        "serving_open",
        "request",
        "open loop in virtual time: 4000 Poisson requests at 30 rps plus no-cache and "
        "6x overload scenarios; read-only context cache, linger timers, cancellations, shedding",
        _serving_open,
    ),
    Workload(
        "fleet_storm",
        "scenario",
        "8 preemption-storm scenarios over two functional-plane training tenants and a "
        "serving co-tenant: many short segments, so construction, service, ft, nn dominate",
        _fleet_storm,
    ),
    Workload(
        "obs_readback",
        "trace_event",
        "read side of the recorded csp_dense trace: summary, critical path, what-if, "
        "Perfetto export, telemetry replay; guards lazy/columnar emission",
        _obs_readback,
    ),
    Workload(
        "cli_cold",
        "invocation",
        "fresh `python -m repro trace` subprocess per iteration: interpreter start, cli "
        "import, 24-subnet run, export; what a user pays per command",
        _cli_cold,
    ),
]

_BY_NAME = {workload.name: workload for workload in WORKLOADS}


def names() -> List[str]:
    return [workload.name for workload in WORKLOADS]


def generate(name: str, seed: int) -> Dict:
    """The inputs of workload ``name`` for ``seed`` (same seed, same bytes)."""
    if name not in _BY_NAME:
        raise KeyError(f"unknown workload {name!r}; choose from {names()}")
    return _BY_NAME[name].generate(int(seed))


def canonical(value) -> str:
    """The ledger's one JSON spelling: sorted keys, compact, one line."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
