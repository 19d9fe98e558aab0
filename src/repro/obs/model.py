"""The run model: one reading of a finished trace.

Every offline reader of an :class:`~repro.sim.trace.ExecutionTrace` —
bubble attribution (:mod:`repro.obs.summary`), the critical-path walk
(:mod:`repro.obs.critical_path`), the what-if replay
(:mod:`repro.obs.whatif`), the Perfetto wait-window track
(:mod:`repro.obs.exporter`) — needs the same facts out of the trace's
intervals and typed events.  :class:`RunModel` extracts them once:

* **per-GPU activity chains** — each GPU's compute and stall intervals
  in ``(start, end)`` order, every stall charged to the resource class
  of the typed event recorded at its ``(stage, start)``;
* **boundary transfers** — one per ``(direction, dst, subnet)``, from
  ``nic_transfer``;
* **admissions** — one zero-length activity per ``subnet_inject``, plus
  the completion whose stage-0 backward released it;
* **merged CSP wait windows** per stage;
* **link parameters** and pipeline depth, from ``link_meta`` /
  ``run_meta``.

This is the one place the DAG rules of ``docs/ANALYSIS.md`` are
implemented; the readers only walk, replay or measure what is here.
The import tree is ``model`` ← ``critical_path`` ← ``summary``,
``model`` ← ``whatif``, ``model`` ← ``exporter``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.trace import ExecutionTrace

__all__ = ["WaitWindow", "csp_wait_windows", "RunModel"]

_Segment = Tuple[float, float]

_EPS = 1e-9


# ----------------------------------------------------------------------
# CSP wait windows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WaitWindow:
    """One CSP wait: the stage's forward queue was dependency-blocked."""

    stage: int
    start: float
    end: float
    blocked: int  # queue-head subnet that could not run
    blocking_subnet: int  # earlier subnet holding the layer
    block: int  # choice-block index of the blocking layer
    choice: int  # candidate index of the blocking layer


_WAIT_KINDS = ("csp_wait_begin", "csp_wait_end")


def csp_wait_windows(trace: ExecutionTrace) -> Dict[int, List[WaitWindow]]:
    """Pair ``csp_wait_begin``/``csp_wait_end`` events into windows per
    stage; a wait still open at the end of the run closes at
    ``trace.end_time``."""
    return _pair_waits(trace.events_of(*_WAIT_KINDS), trace.end_time)


def _pair_waits(events, end_time: float) -> Dict[int, List[WaitWindow]]:
    windows: Dict[int, List[WaitWindow]] = {}
    open_waits: Dict[int, object] = {}
    for event in events:
        if event.kind == "csp_wait_begin":
            open_waits[event.stage] = event
        else:
            begin = open_waits.pop(event.stage, None)
            if begin is None:
                continue
            windows.setdefault(event.stage, []).append(
                _window_from(begin, event.time)
            )
    for stage, begin in sorted(open_waits.items()):
        windows.setdefault(stage, []).append(_window_from(begin, end_time))
    return windows


def _window_from(begin, end: float) -> WaitWindow:
    attrs = begin.attrs_dict
    return WaitWindow(
        stage=begin.stage,
        start=begin.time,
        end=end,
        blocked=begin.subnet_id,
        blocking_subnet=int(attrs.get("blocking_subnet", -1)),
        block=int(attrs.get("block", -1)),
        choice=int(attrs.get("choice", -1)),
    )


# ----------------------------------------------------------------------
# interval arithmetic
# ----------------------------------------------------------------------
def _merge(segments: List[_Segment]) -> List[_Segment]:
    merged: List[_Segment] = []
    for start, end in sorted(segments):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _complement(segments: List[_Segment], lo: float, hi: float) -> List[_Segment]:
    """Gaps of merged ``segments`` inside ``[lo, hi]``."""
    gaps: List[_Segment] = []
    cursor = lo
    for start, end in segments:
        if start > cursor:
            gaps.append((cursor, min(start, hi)))
        cursor = max(cursor, end)
        if cursor >= hi:
            break
    if cursor < hi:
        gaps.append((cursor, hi))
    return [(s, e) for s, e in gaps if e > s]


def _overlap(a: List[_Segment], b: List[_Segment]) -> float:
    """Total overlap length between two merged segment lists."""
    total = 0.0
    j = 0
    for start, end in a:
        while j < len(b) and b[j][1] <= start:
            j += 1
        k = j
        while k < len(b) and b[k][0] < end:
            total += min(end, b[k][1]) - max(start, b[k][0])
            k += 1
    return total


# ----------------------------------------------------------------------
# stall causes
# ----------------------------------------------------------------------
#: stall-interval cause -> resource class (cause comes from the typed
#: event recorded at the stall's (stage, start))
_STALL_CLASS = {
    "fetch_stall": "copy_fetch",
    "migration": "nic_transfer",
    "oom_retry": "other_stall",
    "task_retry": "other_stall",
}


def stall_cause_index(events) -> Dict[Tuple[int, float], str]:
    """``(stage, stall-interval start) -> resource class`` for every
    stall the typed ``events`` (the :data:`_STALL_CLASS` kinds, in
    emission order) explain; the cause of the stall interval starting
    at that instant on that GPU."""
    causes: Dict[Tuple[int, float], str] = {}
    for event in events:
        cause = _STALL_CLASS[event.kind]
        if event.kind == "fetch_stall":
            # the stall interval starts at the (post-migration)
            # dispatch time, which is the event time
            causes[(event.stage, event.time)] = cause
        else:
            causes.setdefault((event.stage, event.time), cause)
    return causes


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Activity:
    """One node of the reconstructed DAG."""

    kind: str  # "compute" | "stall" | "transfer" | "inject"
    start: float
    end: float
    stage: int
    subnet: int
    direction: str  # "fwd" / "bwd" / "" for stalls and injects
    resource: str
    label: str
    gpu_index: int = -1  # position in the per-GPU activity list
    nbytes: float = 0.0  # boundary tensor size (transfers only)

    @property
    def duration(self) -> float:
        return self.end - self.start


class RunModel:
    """Indexes over one trace, built once per analysis: ``gpu_chain``,
    ``compute_index``, ``transfers``, ``injects`` (stream order) with
    ``releaser``, ``wait_segments``, ``links`` and ``num_stages``."""

    def __init__(self, trace: ExecutionTrace) -> None:
        self.trace = trace

        # one scan of the event log for every kind the model reads
        stalls, transfers, injects, waits, links, metas = ([] for _ in range(6))
        sink = {
            **dict.fromkeys(_STALL_CLASS, stalls),
            **dict.fromkeys(_WAIT_KINDS, waits),
            "nic_transfer": transfers,
            "subnet_inject": injects,
            "link_meta": links,
            "run_meta": metas,
        }
        for event in trace.events_of(*sink):
            sink[event.kind].append(event)

        # stall causes keyed by (stage, start time)
        stall_cause = stall_cause_index(stalls)

        # per-GPU activity chains (compute + stalls, observed order)
        self.gpu_chain: Dict[int, List[_Activity]] = {}
        # (stage, subnet, direction) -> compute activities, start order
        self.compute_index: Dict[Tuple[int, int, str], List[_Activity]] = {}
        for gpu, intervals in trace.intervals_by_gpu().items():
            chain: List[_Activity] = []
            for interval in intervals:
                if interval.kind in ("fwd", "bwd"):
                    activity = _Activity(
                        kind="compute",
                        start=interval.start,
                        end=interval.end,
                        stage=gpu,
                        subnet=interval.subnet_id,
                        direction=interval.kind,
                        resource="alu_busy",
                        label=f"SN{interval.subnet_id} {interval.kind}@P{gpu}",
                        gpu_index=len(chain),
                    )
                    self.compute_index.setdefault(
                        (gpu, interval.subnet_id, interval.kind), []
                    ).append(activity)
                else:
                    resource = stall_cause.get(
                        (gpu, interval.start), "other_stall"
                    )
                    activity = _Activity(
                        kind="stall",
                        start=interval.start,
                        end=interval.end,
                        stage=gpu,
                        subnet=interval.subnet_id,
                        direction="",
                        resource=resource,
                        label=f"SN{interval.subnet_id} {resource}@P{gpu}",
                        gpu_index=len(chain),
                    )
                chain.append(activity)
            self.gpu_chain[gpu] = chain

        # transfers keyed by (direction, dst, subnet); a subnet crosses
        # each boundary at most once per direction per attempt
        self.transfers: Dict[Tuple[str, int, int], _Activity] = {}
        for event in transfers:
            attrs = event.attrs_dict
            direction = str(attrs["direction"])
            dst = int(attrs["dst"])
            self.transfers[(direction, dst, event.subnet_id)] = _Activity(
                kind="transfer",
                start=event.time,
                end=float(attrs["arrive"]),
                stage=int(attrs["src"]),
                subnet=event.subnet_id,
                direction=direction,
                resource="nic_transfer",
                label=(
                    f"SN{event.subnet_id} "
                    f"{'activation' if direction == 'fwd' else 'gradient'} "
                    f"P{attrs['src']}->P{dst}"
                ),
                nbytes=float(attrs["nbytes"]),
            )

        # injections in stream order (zero-length; charged to stage 0
        # where they admit) and, per subnet, the subnet whose completion
        # (final backward at stage 0) released the admission: the most
        # recent one at the injection instant, none for the initial window
        completions = sorted(
            (time, sid) for sid, time in trace.subnet_completion_times.items()
        )
        completion_times = [time for time, _ in completions]
        self.injects: Dict[int, _Activity] = {}
        self.releaser: Dict[int, int] = {}
        for event in injects:
            self.injects[event.subnet_id] = _Activity(
                kind="inject",
                start=event.time,
                end=event.time,
                stage=0,
                subnet=event.subnet_id,
                direction="",
                resource="admission_hold",
                label=f"SN{event.subnet_id} inject",
            )
            released = bisect_right(completion_times, event.time + _EPS)
            if released:
                self.releaser[event.subnet_id] = completions[released - 1][1]

        # merged CSP wait windows per stage (gap classification)
        self.wait_segments: Dict[int, List[_Segment]] = {
            stage: _merge([(w.start, w.end) for w in windows])
            for stage, windows in _pair_waits(waits, trace.end_time).items()
        }

        # (src, dst) -> (bandwidth bytes/ms, latency ms)
        self.links: Dict[Tuple[int, int], Tuple[float, float]] = {}
        for event in links:
            attrs = event.attrs_dict
            self.links[(int(attrs["src"]), int(attrs["dst"]))] = (
                float(attrs["bandwidth"]),
                float(attrs["latency"]),
            )

        # pipeline depth as the engine recorded it
        self.num_stages = trace.num_gpus
        if metas:
            self.num_stages = int(metas[0].attr("num_stages", self.num_stages))
