"""The producers behind the one evidence store, ``tests/goldens.json``.

Every pinned byte of the repo outside ``ledger/golden.json`` and
``benchmarks/scheduler_baseline.json`` is one manifest entry, one line
each: a ``naspipe`` command line (``argv``) with the sha256 prefixes of
the files it writes, or a library call (``call``: a name in
:data:`CALLS` and its arguments) with the value it returns.  A value is
compared by :func:`frozen`, its canonical JSON, so ``true`` stays apart
from ``1`` and ``2`` from ``2.0``.

Producers run with the root of a checkout as the working directory (a
command line names its config relative to it, and ``analyze --json``
echoes that path) against whatever ``repro`` is importable.
``tests/test_goldens.py`` checks each entry in-process;
``python tools/goldens.py [--check|--write] [--tree DIR]`` runs
``python -m goldens`` in DIR, which prints this manifest with the values
DIR's ``src/`` and ``examples/`` give.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.baselines import gpipe, naspipe, pipedream, resolve_target, ssp, vpipe
from repro.cli import main
from repro.engines.pipeline import PipelineEngine
from repro.ft import (
    FaultEvent,
    FaultSchedule,
    RecoverySpec,
    run_fleet_scenario,
    run_with_recovery,
)
from repro.obs import (
    EVENT_SCHEMAS,
    critical_path_breakdown,
    run_summary,
    to_perfetto,
    what_if_report,
)
from repro.obs.telemetry import TelemetryHub, replay_telemetry
from repro.payload import compact, sha256
from repro.seeding import SeedSequenceTree
from repro.service import run_service
from repro.serving import ServingEngine, ServingSpec
from repro.sim.cluster import ClusterSpec
from repro.sim.trace import ExecutionTrace
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

MANIFEST = Path(__file__).with_name("goldens.json")


def _example(name: str) -> dict:
    return json.loads((Path("examples") / name).read_text())


# ----------------------------------------------------------------------
# one synthetic event per schema'd kind: the 37 rendered dicts
# ----------------------------------------------------------------------
def _synthetic_value(field, seed: int):
    """A value of the field's declared type; ints and floats are distinct
    per field so a swapped pair of attrs shows."""
    if bool in field.types:
        return True
    if str in field.types:
        return "fwd" if field.name == "direction" else f"{field.name}-x"
    return seed + 0.5 if float in field.types else seed


def one_event_per_kind() -> ExecutionTrace:
    """Kind number ``n`` (``EVENT_SCHEMAS`` order) fires at ``t = n`` on
    stage 1 / subnet 5 where its schema scopes it, so an exported event's
    ``ts`` names the kind it came from."""
    trace = ExecutionTrace(num_gpus=4)
    for position, schema in enumerate(EVENT_SCHEMAS.values()):
        trace.record_event(
            schema.kind,
            float(position),
            stage=1 if schema.stage_scoped else -1,
            subnet_id=5 if schema.subnet_scoped else -1,
            **{
                field.name: _synthetic_value(field, 10 * position + index)
                for index, field in enumerate(schema.fields)
            },
        )
    return trace


def rendered_by_kind(payload) -> Dict[str, dict]:
    """``kind -> exported event`` for :func:`one_event_per_kind`'s
    payload (metadata and the one CSP wait-window span set aside);
    raises if a kind was drawn twice."""
    kinds = list(EVENT_SCHEMAS)
    by_kind: Dict[str, dict] = {}
    for event in payload["traceEvents"]:
        if event["ph"] == "M" or event.get("cat") == "csp-wait":
            continue
        kind = kinds[int(event["ts"])]
        assert kind not in by_kind, f"{kind} rendered twice"
        by_kind[kind] = event
    return by_kind


def rendered(kind: str) -> dict:
    """The Chrome-trace dict ``kind``'s synthetic event exports to."""
    return rendered_by_kind(to_perfetto(one_event_per_kind()))[kind]


# ----------------------------------------------------------------------
# the trace readers: summary, critical path and what-if of 14 runs
# ----------------------------------------------------------------------
def _space(name: str):
    """The ``tiny_space`` / ``small_space`` fixtures of ``conftest.py``."""
    if name == "tiny":
        return get_search_space("NLP.c3").scaled(
            name="tiny", num_blocks=8, choices_per_block=4, functional_width=16
        )
    return get_search_space("NLP.c2").scaled(
        name="small", num_blocks=16, functional_width=16
    )


def _run(space: str, config, gpus: int, count: int = 12):
    supernet = Supernet(_space(space))
    stream = SubnetStream.sample(supernet.space, SeedSequenceTree(7), count)
    return PipelineEngine(
        supernet, stream, config, ClusterSpec(num_gpus=gpus), batch=16
    ).run()


def _crash_attempt(index: int, tmp_path):
    """Attempt ``index`` of a CSP run whose GPU 1 dies at t = 600 ms
    (mid-stream) and restarts on the same four GPUs."""
    space = get_search_space("NLP.c3").scaled(
        name="rec", num_blocks=8, functional_width=16
    )
    history = run_with_recovery(
        space,
        naspipe(),
        FaultSchedule([FaultEvent("gpu_crash", 600.0, target=1)]),
        num_gpus=4,
        steps=24,
        seed=11,
        checkpoint_dir=tmp_path,
        spec=RecoverySpec(checkpoint_interval=8),
    )
    assert history.num_attempts == 2
    return history.results[index]


#: run name -> builder(tmp_path) -> PipelineResult
READER_RUNS: Dict[str, Callable] = {
    **{
        f"{factory.__name__}-{gpus}gpu": (
            lambda tmp, factory=factory, gpus=gpus: _run("tiny", factory(), gpus)
        )
        for factory in (naspipe, pipedream, gpipe, vpipe)
        for gpus in (2, 4)
    },
    # stall-heavy: an undersized cache (fetch stalls + OOM retries) and
    # on-demand migration (nic_transfer-class stalls)
    "naspipe-small-oom": lambda tmp: _run(
        "small", naspipe().with_overrides(cache_subnets=0.6), 2
    ),
    "naspipe-small-migrate": lambda tmp: _run(
        "small", naspipe(mirror_mode="migrate"), 2
    ),
    "gpipe-small-bsp": lambda tmp: _run("small", gpipe(), 4),
    "ssp2-4gpu": lambda tmp: _run("tiny", ssp(2), 4),
    "crash-interrupted": lambda tmp: _crash_attempt(0, tmp),
    "crash-resumed": lambda tmp: _crash_attempt(1, tmp),
}


def reader_hashes(run: str) -> List[str]:
    """16-hex prefixes of the three trace readers' canonical JSON."""
    with tempfile.TemporaryDirectory(prefix="naspipe-golden-") as tmp:
        result = READER_RUNS[run](tmp)
        return [
            sha256(run_summary(result))[:16],
            sha256(critical_path_breakdown(result.trace))[:16],
            sha256(what_if_report(result.trace))[:16],
        ]


# ----------------------------------------------------------------------
# the telemetry plane: snapshot, Prometheus text and scrape series
# ----------------------------------------------------------------------
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


#: run name -> builder() -> the hub that watched (or replayed) the run;
#: between them every instrument of the hub is touched
TELEMETRY_RUNS: Dict[str, Callable[[], TelemetryHub]] = {
    "serve_demo": _service,
    "service_storm": _service_storm,
    "serving_demo": _serving,
    "fleet_storm": _fleet_storm,
    "csp_replay": _csp_replay,
}


def product_hashes(run: str) -> List[str]:
    """16-hex prefixes of the hub's three byte products."""
    hub = TELEMETRY_RUNS[run]()
    return [
        sha256(hub.registry.snapshot())[:16],
        sha256(hub.scraper.prometheus_text())[:16],
        sha256(hub.scraper.series_jsonl())[:16],
    ]


# ----------------------------------------------------------------------
# a recovered run's first consistent cut, on disk
# ----------------------------------------------------------------------
def _members(path: Path) -> List[List[object]]:
    """``[member, dtype, shape]`` of an ``.npz``, in file order."""
    with np.load(path) as payload:
        return [
            [key, payload[key].dtype.str, list(payload[key].shape)]
            for key in payload.files
        ]


def cut() -> Dict[str, object]:
    """For the first cut of the crash + elastic restart of
    ``examples/faults_demo.json``: the ordered ``(member, dtype, shape)``
    list of ``params.npz`` and of ``velocity.npz``, and the
    ``meta.json`` digest."""
    config = _example("faults_demo.json")
    space, system = resolve_target(
        config["space"], config["space_overrides"], config["system"], {}, path="demo"
    )
    with tempfile.TemporaryDirectory(prefix="naspipe-golden-") as tmp:
        run_with_recovery(
            space,
            system,
            FaultSchedule.from_payload(config["faults"]),
            num_gpus=config["num_gpus"],
            steps=config["subnets"],
            seed=config["seed"],
            checkpoint_dir=tmp,
            spec=RecoverySpec(
                checkpoint_interval=config["checkpoint_interval"],
                restart_gpus=config["recovery_gpus"],
            ),
        )
        directory = Path(tmp) / "ckpt_000008"
        params = _members(directory / "params.npz")
        velocity = _members(directory / "velocity.npz")
        return {
            "params_members": len(params),
            "params_first": params[0][0],
            "params_sha": sha256(params)[:16],
            "velocity_members": len(velocity),
            "velocity_sha": sha256(velocity)[:16],
            "digest": json.loads((directory / "meta.json").read_text())["digest"],
        }


# ----------------------------------------------------------------------
# command lines
# ----------------------------------------------------------------------
#: the options whose value names a file the command writes
OUTPUTS = ("--json", "--out", "--prom", "--registry")
#: a registry line carries the tree's ``git rev-parse HEAD``; it is
#: pinned with that nulled, so any commit of unchanged code matches
_GIT_SHA = re.compile(rb'"git_sha":"[0-9a-f]{40}"')


def written_by(argv: List[str]) -> Dict[str, str]:
    """``{file: 16-hex sha256}`` of each file one ``naspipe`` command line
    writes.  An output option's value is a bare file name, written into
    a temporary directory; a failing command raises ``SystemExit``."""
    with tempfile.TemporaryDirectory(prefix="naspipe-golden-") as tmp:
        run = [
            str(Path(tmp, arg)) if option in OUTPUTS else arg
            for option, arg in zip([None, *argv], argv)
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            main(run)
        return {
            name: hashlib.sha256(
                _GIT_SHA.sub(b'"git_sha":null', Path(tmp, name).read_bytes())
            ).hexdigest()[:16]
            for option, name in zip(argv, argv[1:])
            if option in OUTPUTS
        }


# ----------------------------------------------------------------------
# the manifest
# ----------------------------------------------------------------------
#: a ``call`` entry's name -> the producer its arguments go to
CALLS: Dict[str, Callable] = {
    "reader": reader_hashes,
    "rendered": rendered,
    "telemetry": product_hashes,
    "cut": cut,
}


def produce(entry: dict):
    """What the importable ``repro`` gives for one manifest entry."""
    if "argv" in entry:
        return written_by(entry["argv"])
    name, *args = entry["call"]
    return CALLS[name](*args)


def frozen(value) -> str:
    """Key-order-free, type-exact spelling of a pinned value."""
    return compact(value)


def render(manifest: Dict[str, dict]) -> str:
    """The manifest file's text: one entry per line, in manifest order."""
    lines = [f"{json.dumps(name)}: {frozen(entry)}" for name, entry in manifest.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def stale(pinned: Dict[str, dict], fresh: Dict[str, dict]) -> List[str]:
    """Names of the entries ``fresh`` does not reproduce."""
    return [
        name
        for name in {**pinned, **fresh}
        if frozen(pinned.get(name)) != frozen(fresh.get(name))
    ]


if __name__ == "__main__":
    manifest = json.loads(MANIFEST.read_text())
    print(
        render({name: {**entry, "value": produce(entry)} for name, entry in manifest.items()}),
        end="",
    )
