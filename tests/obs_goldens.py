"""Literal goldens for ``repro.obs``, captured at the commit *before* the
run model and the exporter's kind table existed (``0a191a0``).

Two things the ledger and the double-run export test cannot see:

* ``RENDERED`` — the Chrome-trace dict each of the 37 drawn event kinds
  becomes, from a trace holding one synthetic schema-valid event per
  kind (:func:`one_event_per_kind`).  The ledger's trace carries 17
  kinds; the other 30 kinds' rendering is pinned here only.
* ``READER_HASHES`` — ``sha256`` prefixes of ``run_summary``,
  ``critical_path_breakdown`` and ``what_if_report`` over the runs of
  :data:`READER_RUNS`: four systems × two depths, two stall-heavy runs,
  BSP and SSP, and both attempts of a crash + restart.

``python tests/obs_goldens.py`` prints both literals (run it from a
checkout of the commit whose bytes you want to pin).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.baselines import gpipe, naspipe, pipedream, ssp, vpipe
from repro.engines.pipeline import PipelineEngine
from repro.ft import FaultEvent, FaultSchedule, RecoverySpec, run_with_recovery
from repro.obs import (
    EVENT_SCHEMAS,
    critical_path_breakdown,
    run_summary,
    what_if_report,
)
from repro.payload import sha256
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.sim.trace import ExecutionTrace
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet


# ----------------------------------------------------------------------
# one synthetic event per schema'd kind
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


def frozen(event: dict) -> str:
    """Key-order-free, type-exact spelling of one exported event:
    ``repr`` keeps ``True`` apart from ``1`` and ``2`` from ``2.0``."""
    return repr(
        sorted(
            (key, sorted(value.items()) if isinstance(value, dict) else value)
            for key, value in event.items()
        )
    )


# ----------------------------------------------------------------------
# reader hashes
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


def reader_hashes(result) -> Tuple[str, str, str]:
    """16-hex prefixes of the three trace readers' canonical JSON."""
    return (
        sha256(run_summary(result))[:16],
        sha256(critical_path_breakdown(result.trace))[:16],
        sha256(what_if_report(result.trace))[:16],
    )


#: run name -> (summary, critical path, what-if)
READER_HASHES: Dict[str, Tuple[str, str, str]] = {
    "naspipe-2gpu": (
        "f1ebc7cc7daf4d0c",
        "b5af8c578aa4a0cd",
        "fc65311011f66a54",
    ),
    "naspipe-4gpu": (
        "6db6ade0dabb30a1",
        "4422c9f88a5cd6df",
        "acdb31b41103a546",
    ),
    "pipedream-2gpu": (
        "4ce333c2a217f60e",
        "0ef25175ae6bc890",
        "387a0b0f7c4e695e",
    ),
    "pipedream-4gpu": (
        "f135e8cc635ce5e5",
        "04b886740e4364c6",
        "a855e54d6207ac2f",
    ),
    "gpipe-2gpu": (
        "ee20fe6e0fe81691",
        "e4e7f5f8784aaacd",
        "2b328ee994852641",
    ),
    "gpipe-4gpu": (
        "4db697ca1eab4672",
        "6dbd16257c14a745",
        "f7a2f1e4da36ae5a",
    ),
    "vpipe-2gpu": (
        "49d04e2ac52bfdcd",
        "ba796624726da7ec",
        "1caa956db6565577",
    ),
    "vpipe-4gpu": (
        "c1387bfe3cc205d8",
        "7185503ac9ab92dd",
        "5e61fb39a0f42950",
    ),
    "naspipe-small-oom": (
        "396df8f71b82fe00",
        "884e5c2b94e6c23d",
        "43ad6b8cc2be0f46",
    ),
    "naspipe-small-migrate": (
        "df482ba566479494",
        "d4d0f83474cc57b8",
        "6a9bff8873f34f32",
    ),
    "gpipe-small-bsp": (
        "1f8c3b5c72842c3b",
        "d6c4fadf18497147",
        "5e114fd21aaf9bfd",
    ),
    "ssp2-4gpu": (
        "846d240c10b8060b",
        "564843944302028b",
        "bbfcbe4106c50045",
    ),
    "crash-interrupted": (
        "153bd30d3f753352",
        "608e816b922bd782",
        "8c1913052db50385",
    ),
    "crash-resumed": (
        "b39ed5ec43068f0f",
        "de92144171ad3ba7",
        "af2807de2c9b4531",
    ),
}

RENDERED: Dict[str, dict] = {
    "ready_set": {
        "args": {"size": 40},
        "name": "ready set P1",
        "ph": "C",
        "pid": 3,
        "ts": 4.0,
    },
    "queue_depth": {
        "args": {"fwd": 50, "bwd": 51},
        "name": "queues P1",
        "ph": "C",
        "pid": 3,
        "ts": 5.0,
    },
    "prefetch_issue": {
        "args": {"bytes": 62, "demand": True},
        "cat": "copy",
        "dur": 58.5,
        "name": "demand fetch B60.c61",
        "ph": "X",
        "pid": 1,
        "tid": 1,
        "ts": 6.0,
    },
    "eviction": {
        "args": {"bytes": 82, "dirty": True, "reason": "reason-x"},
        "cat": "evict",
        "name": "evict B80.c81",
        "ph": "i",
        "pid": 1,
        "s": "t",
        "tid": 1,
        "ts": 8.0,
    },
    "cache_access": {
        "args": {"hits": 90, "misses": 91},
        "name": "cache P1",
        "ph": "C",
        "pid": 1,
        "ts": 9.0,
    },
    "migration": {
        "args": {"delay_ms": 110.5},
        "cat": "policy",
        "name": "migration",
        "ph": "i",
        "pid": 3,
        "s": "t",
        "tid": 1,
        "ts": 11.0,
    },
    "oom_retry": {
        "args": {"penalty_ms": 120.5, "retry_at": 121.5},
        "cat": "oom",
        "name": "SN5 OOM retry",
        "ph": "i",
        "pid": 0,
        "s": "t",
        "tid": 1,
        "ts": 12.0,
    },
    "nic_transfer": {
        "args": {"bytes": 132, "src": 130, "dst": 131, "subnet": 5},
        "cat": "nic",
        "dur": 120.5,
        "name": "SN5 activation",
        "ph": "X",
        "pid": 2,
        "tid": 260,
        "ts": 13.0,
    },
    "subnet_complete": {
        "args": {"subnet": 5},
        "cat": "completion",
        "name": "SN5 complete",
        "ph": "i",
        "pid": 0,
        "s": "g",
        "tid": 0,
        "ts": 15.0,
    },
    "bulk_flush": {
        "args": {"bulk": 160, "flush_index": 161},
        "cat": "policy",
        "name": "bulk_flush",
        "ph": "i",
        "pid": 3,
        "s": "p",
        "tid": 0,
        "ts": 16.0,
    },
    "staleness_hold": {
        "args": {"oldest_unfinished": 170, "staleness": 171},
        "cat": "policy",
        "name": "staleness_hold",
        "ph": "i",
        "pid": 3,
        "s": "t",
        "tid": 1,
        "ts": 17.0,
    },
    "fault_inject": {
        "args": {
            "fault": "fault-x",
            "target": 211,
            "duration_ms": 212.5,
            "magnitude": 213.5,
        },
        "cat": "fault",
        "name": "fault fault-x@211",
        "ph": "i",
        "pid": 0,
        "s": "g",
        "tid": 0,
        "ts": 21.0,
    },
    "gpu_down": {
        "args": {"cause": "cause-x", "down_ms": 221.5},
        "cat": "fault",
        "name": "gpu_down P1",
        "ph": "i",
        "pid": 0,
        "s": "p",
        "tid": 1,
        "ts": 22.0,
    },
    "gpu_up": {
        "args": {"attempt": 230},
        "cat": "fault",
        "name": "gpu_up P1",
        "ph": "i",
        "pid": 0,
        "s": "p",
        "tid": 1,
        "ts": 23.0,
    },
    "checkpoint_begin": {
        "args": {"cut": 240},
        "cat": "checkpoint",
        "name": "checkpoint_begin cut 240",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 24.0,
    },
    "checkpoint_commit": {
        "args": {"cut": 250, "layers": 251, "nbytes": 252},
        "cat": "checkpoint",
        "name": "checkpoint_commit cut 250",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 25.0,
    },
    "recovery_begin": {
        "args": {"cut": 260, "attempt": 261, "gpus": 262},
        "cat": "checkpoint",
        "name": "recovery_begin cut 260",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 26.0,
    },
    "recovery_done": {
        "args": {
            "cut": 270,
            "attempt": 271,
            "latency_ms": 272.5,
            "rewarmed": 273,
        },
        "cat": "checkpoint",
        "name": "recovery_done cut 270",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 27.0,
    },
    "task_retry": {
        "args": {"attempt": 280, "delay_ms": 281.5, "direction": "fwd"},
        "cat": "fault",
        "name": "SN5 transient retry",
        "ph": "i",
        "pid": 0,
        "s": "t",
        "tid": 1,
        "ts": 28.0,
    },
    "health_report": {
        "args": {
            "scope": "scope-x",
            "index": 291,
            "status": "status-x",
            "metric": 293.5,
            "reference": 294.5,
        },
        "cat": "health",
        "name": "scope-x291 -> status-x",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 29.0,
    },
    "mitigation_apply": {
        "args": {
            "action": "action-x",
            "target": 301,
            "value": 302.5,
            "active": True,
        },
        "cat": "mitigation",
        "name": "action-x on",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 30.0,
    },
    "job_submit": {
        "args": {
            "job": "job-x",
            "priority": 311,
            "subnets": 312,
            "min_gpus": 313,
            "max_gpus": 314,
        },
        "cat": "service",
        "name": "job_submit job-x",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 31.0,
    },
    "job_start": {
        "args": {"job": "job-x", "gpus": 321, "slots": "slots-x", "cut": 323},
        "cat": "service",
        "name": "job_start job-x",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 32.0,
    },
    "job_resize": {
        "args": {"job": "job-x", "gpus_from": 331, "gpus_to": 332, "cut": 333},
        "cat": "service",
        "name": "job_resize job-x",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 33.0,
    },
    "job_preempt": {
        "args": {"job": "job-x", "gpus": 341, "cut": 342},
        "cat": "service",
        "name": "job_preempt job-x",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 34.0,
    },
    "job_done": {
        "args": {
            "job": "job-x",
            "subnets": 351,
            "wait_ms": 352.5,
            "span_ms": 353.5,
            "segments": 354,
        },
        "cat": "service",
        "name": "job_done job-x",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 35.0,
    },
    "lease_revoke": {
        "args": {
            "job": "job-x",
            "lease": 361,
            "slot": 362,
            "fault": "fault-x",
        },
        "cat": "fault",
        "name": "lease_revoke job-x slot 362 (fault-x)",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 36.0,
    },
    "job_requeue": {
        "args": {
            "job": "job-x",
            "cut": 371,
            "restarts": 372,
            "backoff_ms": 373.5,
            "fault": "fault-x",
        },
        "cat": "service",
        "name": "job_requeue job-x",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 37.0,
    },
    "job_failed": {
        "args": {
            "job": "job-x",
            "restarts": 381,
            "lost_ms": 382.5,
            "fault": "fault-x",
        },
        "cat": "service",
        "name": "job_failed job-x",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 38.0,
    },
    "request_arrive": {
        "args": {"digest": "digest-x"},
        "cat": "serving",
        "name": "request_arrive R5",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 39.0,
    },
    "request_admit": {
        "args": {"queue_depth": 400},
        "cat": "serving",
        "name": "request_admit R5",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 40.0,
    },
    "request_shed": {
        "args": {"queue_depth": 410},
        "cat": "serving",
        "name": "request_shed R5",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 41.0,
    },
    "batch_form": {
        "args": {
            "batch": 420,
            "size": 421,
            "cause": "cause-x",
            "oldest_wait_ms": 423.5,
        },
        "cat": "serving",
        "name": "batch 420 (421 req, cause-x)",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 42.0,
    },
    "cache_hit": {
        "args": {"tier": "tier-x"},
        "cat": "serving",
        "name": "cache_hit R5",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 43.0,
    },
    "cache_miss": {
        "args": {"tier": "tier-x"},
        "cat": "serving",
        "name": "cache_miss R5",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 44.0,
    },
    "request_retry": {
        "args": {"retries": 450, "batch": 451},
        "cat": "serving",
        "name": "request_retry R5",
        "ph": "i",
        "pid": 3,
        "s": "g",
        "tid": 0,
        "ts": 45.0,
    },
    "rebalance": {
        "args": {"weight": 460.5},
        "cat": "mitigation",
        "name": "rebalance P1 w=460.5",
        "ph": "i",
        "pid": 3,
        "s": "t",
        "tid": 1,
        "ts": 46.0,
    },
}


if __name__ == "__main__":
    import pprint
    import tempfile

    from repro.obs import to_perfetto

    hashes = {}
    for name, build in READER_RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            hashes[name] = reader_hashes(build(tmp))
    print("READER_HASHES = ", end="")
    pprint.pprint(hashes, width=79, sort_dicts=False)
    print("\nRENDERED = ", end="")
    pprint.pprint(rendered_by_kind(to_perfetto(one_event_per_kind())), width=79)
