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
from itertools import compress
from typing import Dict, Iterable, List, NamedTuple, Tuple

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

#: ``(kind, time, stage, subnet_id, attrs)`` of one event, read from the
#: trace's columns
_Row = Tuple[str, float, int, int, Tuple[Tuple[str, object], ...]]


def _select(trace: ExecutionTrace, kinds: Iterable[str]) -> List[_Row]:
    """The rows of the given kinds, in emission order: one C-level pass
    over the ``kind`` column picks their indices, and only those rows
    are read from the other four columns."""
    log = trace.events
    kind, time, stage, subnet_id, attrs = (
        log.kind, log.time, log.stage, log.subnet_id, log.attrs
    )
    picked = compress(range(len(kind)), map(frozenset(kinds).__contains__, kind))
    return [(kind[i], time[i], stage[i], subnet_id[i], attrs[i]) for i in picked]


def csp_wait_windows(trace: ExecutionTrace) -> Dict[int, List[WaitWindow]]:
    """Pair ``csp_wait_begin``/``csp_wait_end`` events into windows per
    stage; a wait still open at the end of the run closes at
    ``trace.end_time``."""
    return {
        stage: [_window_from(begin, end) for begin, end in pairs]
        for stage, pairs in _pair_waits(
            _select(trace, _WAIT_KINDS), trace.end_time
        ).items()
    }


def _pair_waits(
    rows: List[_Row], end_time: float
) -> Dict[int, List[Tuple[_Row, float]]]:
    """Per stage, ``(begin row, end time)`` of every wait, in close order."""
    windows: Dict[int, List[Tuple[_Row, float]]] = {}
    open_waits: Dict[int, _Row] = {}
    for row in rows:
        kind, time, stage = row[0], row[1], row[2]
        if kind == "csp_wait_begin":
            open_waits[stage] = row
        else:
            begin = open_waits.pop(stage, None)
            if begin is None:
                continue
            windows.setdefault(stage, []).append((begin, time))
    for stage, begin in sorted(open_waits.items()):
        windows.setdefault(stage, []).append((begin, end_time))
    return windows


def _window_from(begin: _Row, end: float) -> WaitWindow:
    _, start, stage, blocked, pairs = begin
    attrs = dict(pairs)
    return WaitWindow(
        stage=stage,
        start=start,
        end=end,
        blocked=blocked,
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


class _Sweep:
    """Overlap lengths of one merged segment list with windows asked for
    in increasing, disjoint order.  The cursor only moves forward: a
    segment that ends at or before one window's start ends before every
    later one's, so each window adds the same terms in the same order a
    scan from the first segment would, and the same float comes out."""

    __slots__ = ("segments", "cursor")

    def __init__(self, segments: List[_Segment]) -> None:
        self.segments = segments
        self.cursor = 0

    def overlap(self, start: float, end: float) -> float:
        segments = self.segments
        count = len(segments)
        j = self.cursor
        while j < count and segments[j][1] <= start:
            j += 1
        self.cursor = j
        total = 0.0
        while j < count and segments[j][0] < end:
            total += min(end, segments[j][1]) - max(start, segments[j][0])
            j += 1
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


def stall_cause_index(rows: Iterable[_Row]) -> Dict[Tuple[int, float], str]:
    """``(stage, stall-interval start) -> resource class`` for every
    stall the typed event ``rows`` (the :data:`_STALL_CLASS` kinds, in
    emission order) explain; the cause of the stall interval starting
    at that instant on that GPU."""
    causes: Dict[Tuple[int, float], str] = {}
    for kind, time, stage, _, _ in rows:
        cause = _STALL_CLASS[kind]
        if kind == "fetch_stall":
            # the stall interval starts at the (post-migration)
            # dispatch time, which is the event time
            causes[(stage, time)] = cause
        else:
            causes.setdefault((stage, time), cause)
    return causes


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------
class _Activity(NamedTuple):
    """One node of the reconstructed DAG (built positionally: a run
    reads ~12k of them)."""

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

        # one selection from the event columns for every kind the model
        # reads, as plain row tuples
        stalls, transfers, injects, waits, links, metas = ([] for _ in range(6))
        sink = {
            **dict.fromkeys(_STALL_CLASS, stalls),
            **dict.fromkeys(_WAIT_KINDS, waits),
            "nic_transfer": transfers,
            "subnet_inject": injects,
            "link_meta": links,
            "run_meta": metas,
        }
        for row in _select(trace, sink):
            sink[row[0]].append(row)

        # stall causes keyed by (stage, start time)
        stall_cause = stall_cause_index(stalls)

        # per-GPU activity chains (compute + stalls, observed order)
        self.gpu_chain: Dict[int, List[_Activity]] = {}
        # (stage, subnet, direction) -> compute activities, start order
        self.compute_index: Dict[Tuple[int, int, str], List[_Activity]] = {}
        compute_index = self.compute_index
        for gpu, intervals in trace.intervals_by_gpu().items():
            chain: List[_Activity] = []
            for _, start, end, kind, subnet in intervals:
                if kind in ("fwd", "bwd"):
                    activity = _Activity(
                        "compute", start, end, gpu, subnet, kind, "alu_busy",
                        f"SN{subnet} {kind}@P{gpu}", len(chain),
                    )
                    key = (gpu, subnet, kind)
                    found = compute_index.get(key)
                    if found is None:
                        compute_index[key] = [activity]
                    else:
                        found.append(activity)
                else:
                    resource = stall_cause.get((gpu, start), "other_stall")
                    activity = _Activity(
                        "stall", start, end, gpu, subnet, "", resource,
                        f"SN{subnet} {resource}@P{gpu}", len(chain),
                    )
                chain.append(activity)
            self.gpu_chain[gpu] = chain

        # transfers keyed by (direction, dst, subnet); a subnet crosses
        # each boundary at most once per direction per attempt
        self.transfers: Dict[Tuple[str, int, int], _Activity] = {}
        for _, time, _, subnet, pairs in transfers:
            attrs = dict(pairs)
            direction = str(attrs["direction"])
            dst = int(attrs["dst"])
            self.transfers[(direction, dst, subnet)] = _Activity(
                "transfer",
                time,
                float(attrs["arrive"]),
                int(attrs["src"]),
                subnet,
                direction,
                "nic_transfer",
                f"SN{subnet} "
                f"{'activation' if direction == 'fwd' else 'gradient'} "
                f"P{attrs['src']}->P{dst}",
                -1,
                float(attrs["nbytes"]),
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
        for _, time, _, subnet, _ in injects:
            self.injects[subnet] = _Activity(
                "inject", time, time, 0, subnet, "", "admission_hold",
                f"SN{subnet} inject",
            )
            released = bisect_right(completion_times, time + _EPS)
            if released:
                self.releaser[subnet] = completions[released - 1][1]

        # merged CSP wait windows per stage (gap classification)
        self.wait_segments: Dict[int, List[_Segment]] = {
            stage: _merge([(begin[1], end) for begin, end in pairs])
            for stage, pairs in _pair_waits(waits, trace.end_time).items()
        }

        # (src, dst) -> (bandwidth bytes/ms, latency ms)
        self.links: Dict[Tuple[int, int], Tuple[float, float]] = {}
        for row in links:
            attrs = dict(row[4])
            self.links[(int(attrs["src"]), int(attrs["dst"]))] = (
                float(attrs["bandwidth"]),
                float(attrs["latency"]),
            )

        # pipeline depth as the engine recorded it
        self.num_stages = trace.num_gpus
        for name, value in metas[0][4] if metas else ():
            if name == "num_stages":
                self.num_stages = int(value)
                break
