"""Chrome Trace Event Format export (Perfetto / ``chrome://tracing``).

The exporter renders one :class:`~repro.sim.trace.ExecutionTrace` as a
Chrome trace with four processes:

* **pid 0 "GPU compute"** — one thread per stage; complete (``X``)
  events for every fwd/bwd/stall busy interval, instant events for
  subnet completions and OOM retries;
* **pid 1 "Copy engines"** — one thread per stage; ``X`` spans from
  prefetch issue to landing (queueing included), instant eviction
  events, and per-stage cumulative cache hit/miss counters;
* **pid 2 "NIC"** — one thread per inter-stage link and direction;
  ``X`` spans from transfer enqueue to delivery;
* **pid 3 "Scheduler"** — one thread per stage; ``X`` spans for CSP
  wait windows (annotated with the blocking ``(subnet, layer)`` edge),
  instant bulk-flush / staleness-hold / migration events, and ready-set
  / queue-depth counters.

Timestamps map 1 virtual ms → 1 trace microsecond (Chrome's native
unit), preserving relative proportions.  Output is deterministic
byte-for-byte: events are sorted on a total key and serialised with
sorted object keys, so identical runs export identical files (the
golden-file test enforces this).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.summary import csp_wait_windows
from repro.payload import compact
from repro.sim.trace import ExecutionTrace

__all__ = ["to_perfetto", "export_chrome_trace", "validate_chrome_trace"]

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
    cache_hits: Dict[int, int] = {}
    cache_misses: Dict[int, int] = {}
    for kind, time, stage, subnet_id, pairs in trace.events.rows():
        attrs = dict(pairs)
        if kind == "prefetch_issue":
            land = float(attrs["land"])  # type: ignore[arg-type]
            events.append(
                {
                    "name": (
                        "{}fetch B{}.c{}".format(
                            "demand " if attrs["demand"] else "pre",
                            attrs["block"],
                            attrs["choice"],
                        )
                    ),
                    "cat": "copy",
                    "ph": "X",
                    "pid": _PID_COPY,
                    "tid": stage,
                    "ts": time,
                    "dur": max(0.0, land - time),
                    "args": {
                        "bytes": attrs["nbytes"],
                        "demand": attrs["demand"],
                    },
                }
            )
        elif kind == "eviction":
            events.append(
                {
                    "name": f"evict B{attrs['block']}.c{attrs['choice']}",
                    "cat": "evict",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID_COPY,
                    "tid": stage,
                    "ts": time,
                    "args": {
                        "bytes": attrs["nbytes"],
                        "dirty": attrs["dirty"],
                        "reason": attrs["reason"],
                    },
                }
            )
        elif kind == "cache_access":
            hits = cache_hits.get(stage, 0) + int(attrs["hits"])  # type: ignore[arg-type]
            misses = cache_misses.get(stage, 0) + int(attrs["misses"])  # type: ignore[arg-type]
            cache_hits[stage] = hits
            cache_misses[stage] = misses
            events.append(
                {
                    "name": f"cache P{stage}",
                    "ph": "C",
                    "pid": _PID_COPY,
                    "ts": time,
                    "args": {"hits": hits, "misses": misses},
                }
            )
        elif kind == "nic_transfer":
            src = int(attrs["src"])  # type: ignore[arg-type]
            fwd = attrs["direction"] == "fwd"
            tid = 2 * (src if fwd else src - 1) + (0 if fwd else 1)
            arrive = float(attrs["arrive"])  # type: ignore[arg-type]
            events.append(
                {
                    "name": "SN{} {}".format(
                        subnet_id, "activation" if fwd else "gradient"
                    ),
                    "cat": "nic",
                    "ph": "X",
                    "pid": _PID_NIC,
                    "tid": tid,
                    "ts": time,
                    "dur": max(0.0, arrive - time),
                    "args": {
                        "bytes": attrs["nbytes"],
                        "src": attrs["src"],
                        "dst": attrs["dst"],
                        "subnet": subnet_id,
                    },
                }
            )
        elif kind == "ready_set":
            events.append(
                {
                    "name": f"ready set P{stage}",
                    "ph": "C",
                    "pid": _PID_SCHED,
                    "ts": time,
                    "args": {"size": attrs["size"]},
                }
            )
        elif kind == "queue_depth":
            events.append(
                {
                    "name": f"queues P{stage}",
                    "ph": "C",
                    "pid": _PID_SCHED,
                    "ts": time,
                    "args": {"fwd": attrs["fwd"], "bwd": attrs["bwd"]},
                }
            )
        elif kind in ("bulk_flush", "staleness_hold", "migration"):
            events.append(
                {
                    "name": kind,
                    "cat": "policy",
                    "ph": "i",
                    "s": "p" if kind == "bulk_flush" else "t",
                    "pid": _PID_SCHED,
                    "tid": max(0, stage),
                    "ts": time,
                    "args": attrs,
                }
            )
        elif kind == "oom_retry":
            events.append(
                {
                    "name": f"SN{subnet_id} OOM retry",
                    "cat": "oom",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID_GPU,
                    "tid": stage,
                    "ts": time,
                    "args": attrs,
                }
            )
        elif kind == "subnet_complete":
            events.append(
                {
                    "name": f"SN{subnet_id} complete",
                    "cat": "completion",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID_GPU,
                    "tid": 0,
                    "ts": time,
                    "args": {"subnet": subnet_id},
                }
            )
        elif kind == "fault_inject":
            events.append(
                {
                    "name": f"fault {attrs['fault']}@{attrs['target']}",
                    "cat": "fault",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID_GPU,
                    "tid": 0,
                    "ts": time,
                    "args": attrs,
                }
            )
        elif kind in ("gpu_down", "gpu_up"):
            events.append(
                {
                    "name": f"{kind} P{stage}",
                    "cat": "fault",
                    "ph": "i",
                    "s": "p",
                    "pid": _PID_GPU,
                    "tid": stage,
                    "ts": time,
                    "args": attrs,
                }
            )
        elif kind == "task_retry":
            events.append(
                {
                    "name": f"SN{subnet_id} transient retry",
                    "cat": "fault",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID_GPU,
                    "tid": stage,
                    "ts": time,
                    "args": attrs,
                }
            )
        elif kind in (
            "checkpoint_begin",
            "checkpoint_commit",
            "recovery_begin",
            "recovery_done",
        ):
            events.append(
                {
                    "name": f"{kind} cut {attrs['cut']}",
                    "cat": "checkpoint",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID_SCHED,
                    "tid": 0,
                    "ts": time,
                    "args": attrs,
                }
            )
        elif kind == "lease_revoke":
            events.append(
                {
                    "name": (
                        f"lease_revoke {attrs['job']} "
                        f"slot {attrs['slot']} ({attrs['fault']})"
                    ),
                    "cat": "fault",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID_SCHED,
                    "tid": 0,
                    "ts": time,
                    "args": attrs,
                }
            )
        elif kind in (
            "job_submit",
            "job_start",
            "job_resize",
            "job_preempt",
            "job_done",
            "job_requeue",
            "job_failed",
        ):
            events.append(
                {
                    "name": f"{kind} {attrs['job']}",
                    "cat": "service",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID_SCHED,
                    "tid": 0,
                    "ts": time,
                    "args": attrs,
                }
            )
        elif kind in (
            "request_arrive",
            "request_admit",
            "request_shed",
            "request_retry",
            "cache_hit",
            "cache_miss",
        ):
            events.append(
                {
                    "name": f"{kind} R{subnet_id}",
                    "cat": "serving",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID_SCHED,
                    "tid": 0,
                    "ts": time,
                    "args": attrs,
                }
            )
        elif kind == "batch_form":
            events.append(
                {
                    "name": (
                        f"batch {attrs['batch']} "
                        f"({attrs['size']} req, {attrs['cause']})"
                    ),
                    "cat": "serving",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID_SCHED,
                    "tid": 0,
                    "ts": time,
                    "args": attrs,
                }
            )
        elif kind == "health_report":
            events.append(
                {
                    "name": (
                        f"{attrs['scope']}{attrs['index']} "
                        f"-> {attrs['status']}"
                    ),
                    "cat": "health",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID_SCHED,
                    "tid": 0,
                    "ts": time,
                    "args": attrs,
                }
            )
        elif kind == "mitigation_apply":
            events.append(
                {
                    "name": (
                        f"{attrs['action']} "
                        f"{'on' if attrs['active'] else 'off'}"
                    ),
                    "cat": "mitigation",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID_SCHED,
                    "tid": 0,
                    "ts": time,
                    "args": attrs,
                }
            )
        elif kind == "rebalance":
            events.append(
                {
                    "name": f"rebalance P{stage} w={attrs['weight']}",
                    "cat": "mitigation",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID_SCHED,
                    "tid": stage,
                    "ts": time,
                    "args": attrs,
                }
            )
        # task_dispatch/task_done/fetch_stall/subnet_inject/csp_wait_*/
        # sim_quiescent are covered by the interval, wait-window and
        # summary renderings; prefetch_land by the issue span.

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


def export_chrome_trace(
    trace: ExecutionTrace,
    path: Optional[Union[str, Path]] = None,
    label: str = "naspipe",
    system: str = "",
    space: str = "",
    batch: Optional[int] = None,
) -> str:
    """Serialise :func:`to_perfetto` deterministically; optionally write
    it to ``path``.  Returns the JSON text."""
    payload = to_perfetto(trace, label=label, system=system, space=space, batch=batch)
    text = compact(payload) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def validate_chrome_trace(payload: Dict[str, object]) -> List[str]:
    """Structural check of a Chrome trace payload (empty = valid).

    Verifies the envelope and, per event, the fields each phase (``ph``)
    requires: ``X`` needs ``ts``/``dur``/``tid``; ``C`` needs numeric
    ``args``; ``i`` needs ``ts`` and scope ``s``; ``M`` needs a name arg.
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        phase = event.get("ph")
        if phase == "X":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: X event without numeric ts")
            if not isinstance(event.get("dur"), (int, float)) or event["dur"] < 0:
                problems.append(f"{where}: X event without dur >= 0")
            if "tid" not in event:
                problems.append(f"{where}: X event without tid")
        elif phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: C event without args")
            elif not all(isinstance(v, (int, float)) for v in args.values()):
                problems.append(f"{where}: C event with non-numeric series")
        elif phase == "i":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: i event without numeric ts")
            if event.get("s") not in ("g", "p", "t"):
                problems.append(f"{where}: i event with bad scope {event.get('s')!r}")
        elif phase == "M":
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                problems.append(f"{where}: M event without args.name")
        else:
            problems.append(f"{where}: unsupported phase {phase!r}")
    return problems
