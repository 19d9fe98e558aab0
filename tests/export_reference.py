"""The Chrome-trace exporter as it was before it wrote text, as a reference.

Through commit ``dbbc422`` the exporter built one dict per event and
serialised the whole payload with ``payload.compact``.  This module is that
code, copied verbatim (kind tables, renderers, ``to_perfetto``,
``compact``), so ``tests/test_export_reference.py`` can assert that
``repro.obs.export_chrome_trace`` still writes the same bytes for any
trace: :func:`reference_export` is the old ``export_chrome_trace``.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.model import csp_wait_windows
from repro.sim.trace import ExecutionTrace


def compact(obj) -> str:
    """Canonical one-line JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_PID_GPU = 0
_PID_COPY = 1
_PID_NIC = 2
_PID_SCHED = 3

_PROCESS_NAMES = {
    _PID_GPU: "GPU compute",
    _PID_COPY: "Copy engines",
    _PID_NIC: "NIC",
    _PID_SCHED: "Scheduler",
}

_INTERVAL_NAMES = {"fwd": "forward", "bwd": "backward", "stall": "stall"}

#: kinds drawn as one instant (``ph: "i"``) whose ``args`` are the event's
#: own attrs: kind -> (pid, category, scope, on the stage's thread (else
#: thread 0), name format over ``kind`` / ``stage`` / ``subnet`` / attrs)
_INSTANTS: Dict[str, Tuple[int, str, str, bool, str]] = {
    "bulk_flush": (_PID_SCHED, "policy", "p", True, "{kind}"),
    "staleness_hold": (_PID_SCHED, "policy", "t", True, "{kind}"),
    "migration": (_PID_SCHED, "policy", "t", True, "{kind}"),
    "oom_retry": (_PID_GPU, "oom", "t", True, "SN{subnet} OOM retry"),
    "fault_inject": (_PID_GPU, "fault", "g", False, "fault {fault}@{target}"),
    "gpu_down": (_PID_GPU, "fault", "p", True, "{kind} P{stage}"),
    "gpu_up": (_PID_GPU, "fault", "p", True, "{kind} P{stage}"),
    "task_retry": (_PID_GPU, "fault", "t", True, "SN{subnet} transient retry"),
    "checkpoint_begin": (_PID_SCHED, "checkpoint", "g", False, "{kind} cut {cut}"),
    "checkpoint_commit": (_PID_SCHED, "checkpoint", "g", False, "{kind} cut {cut}"),
    "recovery_begin": (_PID_SCHED, "checkpoint", "g", False, "{kind} cut {cut}"),
    "recovery_done": (_PID_SCHED, "checkpoint", "g", False, "{kind} cut {cut}"),
    "lease_revoke": (
        _PID_SCHED, "fault", "g", False, "{kind} {job} slot {slot} ({fault})",
    ),
    "job_submit": (_PID_SCHED, "service", "g", False, "{kind} {job}"),
    "job_start": (_PID_SCHED, "service", "g", False, "{kind} {job}"),
    "job_resize": (_PID_SCHED, "service", "g", False, "{kind} {job}"),
    "job_preempt": (_PID_SCHED, "service", "g", False, "{kind} {job}"),
    "job_done": (_PID_SCHED, "service", "g", False, "{kind} {job}"),
    "job_requeue": (_PID_SCHED, "service", "g", False, "{kind} {job}"),
    "job_failed": (_PID_SCHED, "service", "g", False, "{kind} {job}"),
    "request_arrive": (_PID_SCHED, "serving", "g", False, "{kind} R{subnet}"),
    "request_admit": (_PID_SCHED, "serving", "g", False, "{kind} R{subnet}"),
    "request_shed": (_PID_SCHED, "serving", "g", False, "{kind} R{subnet}"),
    "request_retry": (_PID_SCHED, "serving", "g", False, "{kind} R{subnet}"),
    "cache_hit": (_PID_SCHED, "serving", "g", False, "{kind} R{subnet}"),
    "cache_miss": (_PID_SCHED, "serving", "g", False, "{kind} R{subnet}"),
    "batch_form": (
        _PID_SCHED, "serving", "g", False, "batch {batch} ({size} req, {cause})",
    ),
    "health_report": (
        _PID_SCHED, "health", "g", False, "{scope}{index} -> {status}",
    ),
    "rebalance": (
        _PID_SCHED, "mitigation", "t", True, "rebalance P{stage} w={weight}",
    ),
}


# The kinds that are not that shape: each renderer returns the event
# minus ``ph`` / ``pid`` / ``ts``, which the table row supplies.
def _prefetch_issue(time, stage, subnet_id, attrs, cache_totals):
    land = float(attrs["land"])
    return {
        "name": "{}fetch B{}.c{}".format(
            "demand " if attrs["demand"] else "pre",
            attrs["block"],
            attrs["choice"],
        ),
        "cat": "copy",
        "tid": stage,
        "dur": max(0.0, land - time),
        "args": {"bytes": attrs["nbytes"], "demand": attrs["demand"]},
    }


def _eviction(time, stage, subnet_id, attrs, cache_totals):
    return {
        "name": f"evict B{attrs['block']}.c{attrs['choice']}",
        "cat": "evict",
        "s": "t",
        "tid": stage,
        "args": {
            "bytes": attrs["nbytes"],
            "dirty": attrs["dirty"],
            "reason": attrs["reason"],
        },
    }


def _cache_access(time, stage, subnet_id, attrs, cache_totals):
    """Cumulative per-stage hit/miss counter."""
    totals = cache_totals.setdefault(stage, [0, 0])
    totals[0] += int(attrs["hits"])
    totals[1] += int(attrs["misses"])
    return {
        "name": f"cache P{stage}",
        "args": {"hits": totals[0], "misses": totals[1]},
    }


def _nic_transfer(time, stage, subnet_id, attrs, cache_totals):
    src = int(attrs["src"])
    fwd = attrs["direction"] == "fwd"
    arrive = float(attrs["arrive"])
    return {
        "name": "SN{} {}".format(subnet_id, "activation" if fwd else "gradient"),
        "cat": "nic",
        "tid": 2 * (src if fwd else src - 1) + (0 if fwd else 1),
        "dur": max(0.0, arrive - time),
        "args": {
            "bytes": attrs["nbytes"],
            "src": attrs["src"],
            "dst": attrs["dst"],
            "subnet": subnet_id,
        },
    }


def _ready_set(time, stage, subnet_id, attrs, cache_totals):
    return {"name": f"ready set P{stage}", "args": {"size": attrs["size"]}}


def _queue_depth(time, stage, subnet_id, attrs, cache_totals):
    return {
        "name": f"queues P{stage}",
        "args": {"fwd": attrs["fwd"], "bwd": attrs["bwd"]},
    }


def _subnet_complete(time, stage, subnet_id, attrs, cache_totals):
    return {
        "name": f"SN{subnet_id} complete",
        "cat": "completion",
        "s": "g",
        "tid": 0,
        "args": {"subnet": subnet_id},
    }


def _mitigation_apply(time, stage, subnet_id, attrs, cache_totals):
    return {
        "name": f"{attrs['action']} {'on' if attrs['active'] else 'off'}",
        "cat": "mitigation",
        "s": "g",
        "tid": 0,
        "args": attrs,
    }


#: kind -> (pid, phase, renderer)
_SPECIAL: Dict[str, Tuple[int, str, Callable[..., Dict[str, object]]]] = {
    "prefetch_issue": (_PID_COPY, "X", _prefetch_issue),
    "eviction": (_PID_COPY, "i", _eviction),
    "cache_access": (_PID_COPY, "C", _cache_access),
    "nic_transfer": (_PID_NIC, "X", _nic_transfer),
    "ready_set": (_PID_SCHED, "C", _ready_set),
    "queue_depth": (_PID_SCHED, "C", _queue_depth),
    "subnet_complete": (_PID_GPU, "i", _subnet_complete),
    "mitigation_apply": (_PID_SCHED, "i", _mitigation_apply),
}

#: kinds no event is drawn for, and why
_NOT_RENDERED: Dict[str, str] = {
    "task_dispatch": "shown as the fwd/bwd busy-interval span",
    "task_done": "shown as the fwd/bwd busy-interval span",
    "fetch_stall": "shown as the stall busy-interval span",
    "subnet_inject": "read by the analyses (the admission edge)",
    "csp_wait_begin": "shown as the paired CSP wait-window span",
    "csp_wait_end": "shown as the paired CSP wait-window span",
    "prefetch_land": "shown as the end of its prefetch_issue span",
    "sim_quiescent": "counted in the run summary only",
    "run_meta": "static facts for the analyses",
    "link_meta": "static facts for the analyses",
}


def _meta(pid: int, tid: Optional[int], name: str) -> Dict[str, object]:
    event: Dict[str, object] = {
        "name": "process_name" if tid is None else "thread_name",
        "ph": "M",
        "pid": pid,
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def to_perfetto(
    trace: ExecutionTrace,
    label: str = "naspipe",
    system: str = "",
    space: str = "",
    batch: Optional[int] = None,
) -> Dict[str, object]:
    """Build the Chrome trace payload (a JSON-serialisable dict)."""
    events: List[Dict[str, object]] = []

    # -- metadata: processes and threads -------------------------------
    for pid, name in _PROCESS_NAMES.items():
        events.append(_meta(pid, None, name))
    for stage in range(trace.num_gpus):
        events.append(_meta(_PID_GPU, stage, f"GPU {stage}"))
        events.append(_meta(_PID_COPY, stage, f"copy engine {stage}"))
        events.append(_meta(_PID_SCHED, stage, f"stage {stage} scheduler"))
    for stage in range(trace.num_gpus - 1):
        events.append(_meta(_PID_NIC, 2 * stage, f"link P{stage}->P{stage + 1}"))
        events.append(_meta(_PID_NIC, 2 * stage + 1, f"link P{stage + 1}->P{stage}"))

    # -- pid 0: GPU busy intervals --------------------------------------
    for interval in trace.intervals:
        events.append(
            {
                "name": f"SN{interval.subnet_id} {_INTERVAL_NAMES[interval.kind]}",
                "cat": interval.kind,
                "ph": "X",
                "pid": _PID_GPU,
                "tid": interval.gpu_id,
                "ts": interval.start,
                "dur": interval.duration,
                "args": {"subnet": interval.subnet_id, "kind": interval.kind},
            }
        )

    # -- typed events ---------------------------------------------------
    cache_totals: Dict[int, List[int]] = {}
    for kind, time, stage, subnet_id, pairs in trace.events.rows():
        special = _SPECIAL.get(kind)
        if special is not None:
            pid, phase, render = special
            event = render(time, stage, subnet_id, dict(pairs), cache_totals)
            event["ph"], event["pid"], event["ts"] = phase, pid, time
            events.append(event)
            continue
        instant = _INSTANTS.get(kind)
        if instant is not None:
            pid, category, scope, on_stage_thread, name_format = instant
            attrs = dict(pairs)
            events.append(
                {
                    "name": name_format.format(
                        kind=kind, stage=stage, subnet=subnet_id, **attrs
                    ),
                    "cat": category,
                    "ph": "i",
                    "s": scope,
                    "pid": pid,
                    "tid": max(0, stage) if on_stage_thread else 0,
                    "ts": time,
                    "args": attrs,
                }
            )

    # -- pid 3: CSP wait windows ---------------------------------------
    for stage, windows in sorted(csp_wait_windows(trace).items()):
        for window in windows:
            events.append(
                {
                    "name": (
                        f"wait SN{window.blocked} on SN{window.blocking_subnet}"
                        f" B{window.block}.c{window.choice}"
                    ),
                    "cat": "csp-wait",
                    "ph": "X",
                    "pid": _PID_SCHED,
                    "tid": stage,
                    "ts": window.start,
                    "dur": window.end - window.start,
                    "args": {
                        "blocked": window.blocked,
                        "blocking_subnet": window.blocking_subnet,
                        "block": window.block,
                        "choice": window.choice,
                    },
                }
            )

    # Total deterministic order: metadata first, then by time/track/name.
    events.sort(
        key=lambda e: (
            0 if e["ph"] == "M" else 1,
            e.get("ts", 0.0),
            e["pid"],
            e.get("tid", -1),
            e["name"],
            e["ph"],
        )
    )
    other: Dict[str, object] = {"label": label}
    if system:
        other["system"] = system
    if space:
        other["space"] = space
    if batch is not None:
        other["batch"] = batch
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def reference_export(trace: ExecutionTrace, **envelope) -> str:
    """What ``export_chrome_trace(trace, **envelope)`` returned."""
    return compact(to_perfetto(trace, **envelope)) + "\n"
