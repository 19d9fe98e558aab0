"""Byte goldens for the telemetry plane, captured at the commit *before*
the hub declared its instruments in one table and updated them from a
kind table (``d6ed72b``).

The ledger hashes one CSP replay and ``monitor-smoke`` compares the code
with itself; these pin, as ``sha256`` prefixes, the three products of a
hub — final ``registry.snapshot()``, ``prometheus_text()`` and
``series_jsonl()`` — for the runs of :data:`RUNS`: a healthy and a
struck service plane, a live serving plane, one fleet storm watched from
the serving plane, and the post-hoc replay of a stall-heavy CSP trace.
Between them every instrument of the hub is touched.

``python tests/telemetry_goldens.py`` prints the literal (run it from a
checkout of the commit whose bytes you want to pin).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Tuple

from obs_goldens import READER_RUNS
from repro.ft import run_fleet_scenario
from repro.obs.telemetry import TelemetryHub, replay_telemetry
from repro.payload import sha256
from repro.seeding import SeedSequenceTree
from repro.service import run_service
from repro.serving import ServingEngine, ServingSpec

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _example(name: str) -> dict:
    return json.loads((EXAMPLES / name).read_text())


def _service() -> TelemetryHub:
    hub = TelemetryHub(scrape_interval_ms=50.0)
    run_service(_example("serve_demo.json"), telemetry=hub)
    return hub


def _service_storm() -> TelemetryHub:
    """The service kinds a healthy run never emits: ``high`` arrives
    late and squeezes ``low`` out (preempt), is struck twice with one
    restart in its budget (requeue, then failed)."""
    overrides = {"num_blocks": 8, "functional_width": 16}
    payload = {
        "total_gpus": 4,
        "quantum": 4,
        "resize_cost_ms": 20.0,
        "max_restarts": 1,
        "requeue_backoff_ms": 20.0,
        "jobs": [
            {"name": "low", "space": "NLP.c3", "space_overrides": overrides,
             "system": "NASPipe", "subnets": 12, "seed": 2022, "priority": 1,
             "min_gpus": 2, "max_gpus": 4},
            {"name": "high", "space": "CV.c3", "space_overrides": overrides,
             "system": "PipeDream", "subnets": 8, "seed": 7, "priority": 3,
             "submit_ms": 50.0, "min_gpus": 4, "max_gpus": 4},
        ],
        "faults": [
            {"kind": "slot_preempt", "time_ms": time_ms, "target": slot,
             "duration_ms": 60.0}
            for time_ms, slot in ((400.0, 1), (900.0, 3), (1500.0, 2))
        ],
    }
    hub = TelemetryHub(scrape_interval_ms=50.0)
    run_service(payload, telemetry=hub)
    return hub


def _serving() -> TelemetryHub:
    hub = TelemetryHub(scrape_interval_ms=50.0)
    spec = ServingSpec.from_payload(_example("serving_demo.json"))
    ServingEngine(spec, telemetry=hub).run()
    return hub


def _fleet_storm() -> TelemetryHub:
    """A storm that revokes the serving lease (sheds, retries, an SLO
    burn) and strikes the training plane's slots too."""
    hub = TelemetryHub(scrape_interval_ms=50.0)
    row = run_fleet_scenario(
        _example("chaos_fleet_demo.json"),
        fleet_slots=8,
        storm_seed=1,
        horizon_ms=1500.0,
        serving_telemetry=hub,
    )
    assert row["revocations"] > 0 and not row["violations"]
    return hub


def _csp_replay() -> TelemetryHub:
    """An undersized cache, so the trace carries fetch stalls and
    prefetches beside the dispatch and queue-depth kinds."""
    return replay_telemetry(READER_RUNS["naspipe-small-oom"](None).trace)


#: run name -> builder() -> the hub that watched (or replayed) the run
RUNS: Dict[str, Callable[[], TelemetryHub]] = {
    "serve_demo": _service,
    "service_storm": _service_storm,
    "serving_demo": _serving,
    "fleet_storm": _fleet_storm,
    "csp_replay": _csp_replay,
}


def product_hashes(hub: TelemetryHub) -> Tuple[str, str, str]:
    """16-hex prefixes of the hub's three byte products."""
    return (
        sha256(hub.registry.snapshot())[:16],
        sha256(hub.scraper.prometheus_text())[:16],
        sha256(hub.scraper.series_jsonl())[:16],
    )


#: run name -> (snapshot, prometheus text, series JSONL)
PRODUCT_HASHES: Dict[str, Tuple[str, str, str]] = {
    "serve_demo": ("151c7029e5c6a631", "2e61cd5381961f11", "cd2e3a9ec2e0376e"),
    "service_storm": ("82a2e6fd6f59b146", "bee5bf935dd922ff", "23d20599eb51caa5"),
    "serving_demo": ("609e3899ba895276", "0cb614ba88c9e5bd", "7f232c2fe7cb0aa9"),
    "fleet_storm": ("68309a626a1274ff", "4edfa8616c34e8c6", "2f49c7facb1cb02c"),
    "csp_replay": ("cdfb52970a0567f2", "85d94e4faa91fc47", "f99f684fecf28105"),
}


if __name__ == "__main__":
    print("PRODUCT_HASHES: Dict[str, Tuple[str, str, str]] = {")
    for name, build in RUNS.items():
        hashes = ", ".join(f'"{value}"' for value in product_hashes(build()))
        print(f'    "{name}": ({hashes}),')
    print("}")
