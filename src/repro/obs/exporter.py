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
byte-for-byte: each event is written once, as canonical JSON text with
sorted object keys, and the events are sorted on a total key, so
identical runs export identical files (the golden-file test enforces
this).
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote  # a str's JSON text
from math import isfinite
from operator import is_, itemgetter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.model import csp_wait_windows
from repro.payload import compact
from repro.sim.trace import ExecutionTrace

__all__ = ["export_chrome_trace", "validate_chrome_trace"]

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


def _json(value) -> str:
    """One value spelled as :func:`~repro.payload.compact` spells it,
    without an encoder per call: floats (``numpy.float64`` too) and ints
    by their base type's ``__repr__``, ``NaN`` / ``Infinity`` /
    ``-Infinity``, ``true`` / ``false``, strings by ``json``'s own
    escaper; any other type through :func:`compact`."""
    if isinstance(value, float):
        if isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str):
        return _quote(value)
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return compact(value)


_VALUE = itemgetter(1)


def _repeated(kind, stage, pairs, memo, track, head):
    """``head(stage, attrs, track)`` — a ``kind`` event's ``(tid, name,
    text up to "ts":)``, which depend on ``(stage, attrs)`` only —
    rendered once per call for each distinct pair and read from the
    call's ``memo`` after that.

    Equal is not enough to reuse text (``1 == 1.0 == True``, ``0.0 ==
    -0.0``): a hit also needs the attrs tuple the entry was rendered
    from, or one whose values are the very same objects, and an int
    stage.  The emitters hand out shared attrs tuples, so that is the
    common case; any other row is rendered and replaces the entry."""
    if type(stage) is not int:
        return head(stage, dict(pairs), track)
    key = (kind, stage, pairs)
    try:
        hit = memo.get(key)
    except TypeError:  # an unhashable attr value
        return head(stage, dict(pairs), track)
    if hit is None or (
        hit[0] is not pairs
        and not all(map(is_, map(_VALUE, hit[0]), map(_VALUE, pairs)))
    ):
        hit = memo[key] = (pairs, head(stage, dict(pairs), track))
    return hit[1]


# The kinds that are not that shape.  A renderer returns what the sort
# reads besides the row's pid/phase — ``tid`` (-1: the event has none)
# and ``name`` — and the event's canonical JSON text, keys in sorted
# order, with ``track`` (the row's ``"ph":…,"pid":…``) in its place, up
# to the ``"ts":`` every event's text ends with (the export writes the
# timestamp).  ``memo`` is the call's own dict: the cache counters'
# running totals and the text already rendered for a repeated event
# (:func:`_repeated`).
def _prefetch_head(stage, attrs, track):
    """The text around ``dur``; the rest depends on ``(stage, attrs)``."""
    name = "{}fetch B{}.c{}".format(
        "demand " if attrs["demand"] else "pre",
        attrs["block"],
        attrs["choice"],
    )
    return stage, name, (
        f'{{"args":{{"bytes":{_json(attrs["nbytes"])},'
        f'"demand":{_json(attrs["demand"])}}},"cat":"copy","dur":',
        f',"name":{_quote(name)},{track},"tid":{_json(stage)},"ts":',
    )


def _prefetch_issue(time, stage, subnet_id, pairs, memo, track):
    # issues of one layer differ in ``land`` (last, as emitted) and time
    if pairs and pairs[-1][0] == "land":
        rest, land = pairs[:-1], pairs[-1][1]
    else:
        rest, land = pairs, dict(pairs)["land"]
    tid, name, (before, after) = _repeated(
        "prefetch_issue", stage, rest, memo, track, _prefetch_head
    )
    return tid, name, f"{before}{_json(max(0.0, float(land) - time))}{after}"


def _eviction_head(stage, attrs, track):
    name = f"evict B{attrs['block']}.c{attrs['choice']}"
    return stage, name, (
        f'{{"args":{{"bytes":{_json(attrs["nbytes"])},'
        f'"dirty":{_json(attrs["dirty"])},"reason":{_json(attrs["reason"])}}},'
        f'"cat":"evict","name":{_quote(name)},{track},"s":"t",'
        f'"tid":{_json(stage)},"ts":'
    )


def _eviction(time, stage, subnet_id, pairs, memo, track):
    return _repeated("eviction", stage, pairs, memo, track, _eviction_head)


def _cache_access(time, stage, subnet_id, pairs, memo, track):
    """Cumulative per-stage hit/miss counter."""
    attrs = dict(pairs)
    totals = memo.setdefault(("cache_access", stage), [0, 0])
    totals[0] += int(attrs["hits"])
    totals[1] += int(attrs["misses"])
    name = f"cache P{stage}"
    return -1, name, (
        f'{{"args":{{"hits":{totals[0]},"misses":{totals[1]}}},'
        f'"name":{_quote(name)},{track},"ts":'
    )


def _nic_transfer(time, stage, subnet_id, pairs, memo, track):
    attrs = dict(pairs)
    src = int(attrs["src"])
    fwd = attrs["direction"] == "fwd"
    arrive = float(attrs["arrive"])
    name = "SN{} {}".format(subnet_id, "activation" if fwd else "gradient")
    tid = 2 * (src if fwd else src - 1) + (0 if fwd else 1)
    return tid, name, (
        f'{{"args":{{"bytes":{_json(attrs["nbytes"])},"dst":{_json(attrs["dst"])},'
        f'"src":{_json(attrs["src"])},"subnet":{_json(subnet_id)}}},"cat":"nic",'
        f'"dur":{_json(max(0.0, arrive - time))},"name":{_quote(name)},{track},'
        f'"tid":{tid},"ts":'
    )


def _ready_set_head(stage, attrs, track):
    name = f"ready set P{stage}"
    return -1, name, (
        f'{{"args":{{"size":{_json(attrs["size"])}}},"name":{_quote(name)},'
        f'{track},"ts":'
    )


def _ready_set(time, stage, subnet_id, pairs, memo, track):
    return _repeated("ready_set", stage, pairs, memo, track, _ready_set_head)


def _queue_depth_head(stage, attrs, track):
    name = f"queues P{stage}"
    return -1, name, (
        f'{{"args":{{"bwd":{_json(attrs["bwd"])},"fwd":{_json(attrs["fwd"])}}},'
        f'"name":{_quote(name)},{track},"ts":'
    )


def _queue_depth(time, stage, subnet_id, pairs, memo, track):
    return _repeated("queue_depth", stage, pairs, memo, track, _queue_depth_head)


def _subnet_complete(time, stage, subnet_id, pairs, memo, track):
    name = f"SN{subnet_id} complete"
    return 0, name, (
        f'{{"args":{{"subnet":{_json(subnet_id)}}},"cat":"completion",'
        f'"name":{_quote(name)},{track},"s":"g","tid":0,"ts":'
    )


def _mitigation_apply(time, stage, subnet_id, pairs, memo, track):
    attrs = dict(pairs)
    name = f"{attrs['action']} {'on' if attrs['active'] else 'off'}"
    return 0, name, (
        f'{{"args":{compact(attrs)},"cat":"mitigation","name":{_quote(name)},'
        f'{track},"s":"g","tid":0,"ts":'
    )


#: kind -> (pid, phase, renderer)
_SPECIAL: Dict[str, Tuple[int, str, Callable[..., Tuple[int, str, str]]]] = {
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


def _meta(pid: int, tid: Optional[int], name: str) -> Tuple[tuple, str]:
    """A process (``tid`` None) or thread name: its sort key and text."""
    if tid is None:
        return (0, 0.0, pid, -1, "process_name", "M"), (
            f'{{"args":{{"name":{_quote(name)}}},"name":"process_name",'
            f'"ph":"M","pid":{pid}}}'
        )
    return (0, 0.0, pid, tid, "thread_name", "M"), (
        f'{{"args":{{"name":{_quote(name)}}},"name":"thread_name",'
        f'"ph":"M","pid":{pid},"tid":{tid}}}'
    )


def _instant(kind, stage, subnet_id, attrs, row):
    """An :data:`_INSTANTS` event: ``(tid, name, text up to "ts":)`` like
    a renderer."""
    pid, category, scope, on_stage_thread, name_format = row
    name = name_format.format(kind=kind, stage=stage, subnet=subnet_id, **attrs)
    tid = max(0, stage) if on_stage_thread else 0
    return tid, name, (
        f'{{"args":{compact(attrs)},"cat":"{category}","name":{_quote(name)},'
        f'"ph":"i","pid":{pid},"s":"{scope}","tid":{_json(tid)},"ts":'
    )


def export_chrome_trace(
    trace: ExecutionTrace,
    path: Optional[Union[str, Path]] = None,
    label: str = "naspipe",
    system: str = "",
    space: str = "",
    batch: Optional[int] = None,
) -> str:
    """The Chrome trace as canonical JSON (sorted keys, no whitespace,
    one trailing newline); optionally written to ``path``.  Returns the
    text.  Each event is written as text once, beside its sort key."""
    events: List[Tuple[tuple, str]] = []
    stamps: Dict[float, str] = {}

    def stamp(time) -> str:
        """``time``'s JSON text, spelled once per call for each nonzero
        float (``0.0 == -0.0`` and ``1 == 1.0`` are spelled apart)."""
        if type(time) is not float or not time:
            return _json(time)
        text = stamps.get(time)
        if text is None:
            text = stamps[time] = _json(time)
        return text

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
        kind, subnet_id, gpu = interval.kind, interval.subnet_id, interval.gpu_id
        name = f"SN{subnet_id} {_INTERVAL_NAMES[kind]}"
        events.append((
            (1, interval.start, _PID_GPU, gpu, name, "X"),
            f'{{"args":{{"kind":{_json(kind)},"subnet":{_json(subnet_id)}}},'
            f'"cat":{_json(kind)},"dur":{_json(interval.duration)},'
            f'"name":{_quote(name)},"ph":"X","pid":{_PID_GPU},"tid":{_json(gpu)},'
            f'"ts":{stamp(interval.start)}}}',
        ))

    # -- typed events ---------------------------------------------------
    specials = {
        kind: (pid, phase, render, f'"ph":"{phase}","pid":{pid}')
        for kind, (pid, phase, render) in _SPECIAL.items()
    }
    memo: Dict[tuple, object] = {}  # this call's only: see _repeated
    for kind, time, stage, subnet_id, pairs in trace.events.rows():
        special = specials.get(kind)
        if special is not None:
            pid, phase, render, track = special
            tid, name, head = render(time, stage, subnet_id, pairs, memo, track)
            events.append(((1, time, pid, tid, name, phase), f"{head}{stamp(time)}}}"))
            continue
        instant = _INSTANTS.get(kind)
        if instant is not None:
            tid, name, head = _instant(kind, stage, subnet_id, dict(pairs), instant)
            events.append(
                ((1, time, instant[0], tid, name, "i"), f"{head}{stamp(time)}}}")
            )

    # -- pid 3: CSP wait windows ---------------------------------------
    for stage, windows in sorted(csp_wait_windows(trace).items()):
        for window in windows:
            name = (
                f"wait SN{window.blocked} on SN{window.blocking_subnet}"
                f" B{window.block}.c{window.choice}"
            )
            events.append((
                (1, window.start, _PID_SCHED, stage, name, "X"),
                f'{{"args":{{"block":{_json(window.block)},'
                f'"blocked":{_json(window.blocked)},'
                f'"blocking_subnet":{_json(window.blocking_subnet)},'
                f'"choice":{_json(window.choice)}}},"cat":"csp-wait",'
                f'"dur":{_json(window.end - window.start)},"name":{_quote(name)},'
                f'"ph":"X","pid":{_PID_SCHED},"tid":{_json(stage)},'
                f'"ts":{stamp(window.start)}}}',
            ))

    # Total deterministic order: metadata first, then by time/track/name
    # (ts, pid, tid, name, ph); the sort is stable, so ties keep the
    # order above.  One join writes the envelope, every event and the
    # trailing newline (the last event's comma becomes the close).
    events.sort(key=itemgetter(0))
    other: Dict[str, object] = {"label": label}
    if system:
        other["system"] = system
    if space:
        other["space"] = space
    if batch is not None:
        other["batch"] = batch
    parts = [f'{{"displayTimeUnit":"ms","otherData":{compact(other)},"traceEvents":[']
    for _, event in events:
        parts += (event, ",")
    parts[-1] = "]}\n"
    text = "".join(parts)
    if path is not None:
        Path(path).write_text(text)
    return text


def _finite(value) -> bool:
    """A number every JSON parser reads: not a bool, not NaN or ±inf."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and isfinite(value)
    )


def validate_chrome_trace(payload: Dict[str, object]) -> List[str]:
    """Structural check of a Chrome trace payload (empty = valid).

    Verifies the envelope and, per event, the fields each phase (``ph``)
    requires: ``X`` needs ``ts``/``dur``/``tid``; ``C`` needs numeric
    ``args``; ``i`` needs ``ts`` and scope ``s``; ``M`` needs a name arg.
    A ``ts``, ``dur`` or counter series value must be a finite number
    that is not a bool (NaN and ±inf are not JSON).
    """
    if not isinstance(payload, dict):
        return [f"payload is a {type(payload).__name__}, not an object"]
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
            if not _finite(event.get("ts")):
                problems.append(f"{where}: X event without finite numeric ts")
            if not _finite(event.get("dur")) or event["dur"] < 0:
                problems.append(f"{where}: X event without finite dur >= 0")
            if "tid" not in event:
                problems.append(f"{where}: X event without tid")
        elif phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: C event without args")
            elif not all(_finite(v) for v in args.values()):
                problems.append(f"{where}: C event with a non-finite series")
        elif phase == "i":
            if not _finite(event.get("ts")):
                problems.append(f"{where}: i event without finite numeric ts")
            if event.get("s") not in ("g", "p", "t"):
                problems.append(f"{where}: i event with bad scope {event.get('s')!r}")
        elif phase == "M":
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                problems.append(f"{where}: M event without args.name")
        else:
            problems.append(f"{where}: unsupported phase {phase!r}")
    return problems
