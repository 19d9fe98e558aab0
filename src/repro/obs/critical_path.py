"""Critical-path analysis over the reconstructed task DAG.

The trace of one pipeline run contains the full task-level dependency
DAG: compute intervals, NIC transfers, fetch/migration/OOM stalls,
subnet injections and CSP wait windows.  This module walks that DAG
*backwards* from the run's final completion, always stepping to the
predecessor whose finish actually bound the current activity's start —
the classic critical-path construction (PipeDream's 1F1B analysis and
pipeline-planning work such as Luo et al. frame throughput limits the
same way).

The result is a chain of :class:`PathSegment` spans that **tiles the
active window exactly**: adjacent segments share endpoints, so the
segment lengths sum to the measured makespan to float precision (the
same invariant style as bubble attribution, enforced at 1e-9 by the
tests).  Each segment is charged to one resource class:

* ``alu_busy`` — a fwd/bwd compute task on the path;
* ``nic_transfer`` — an inter-stage activation/gradient transfer
  (queueing included) or an on-demand operator migration;
* ``copy_fetch`` — a synchronous parameter swap-in stall;
* ``csp_wait`` — idle on the path overlapping an open CSP wait window
  (the scheduling cost of Definition 2, now *on the critical path*);
* ``admission_hold`` — idle before a stage-0 forward / injection while
  the policy's admission or execution window was the binding gate;
* ``scheduler_idle`` — any other idle on the path (upstream starvation
  that no recorded wait window explains);
* ``other_stall`` — OOM-retry / transient-fault-retry stalls.

Deterministic by construction: the walk breaks every tie on a fixed
``(end, priority, start, stage)`` key and the breakdown dict is emitted
with sorted keys, so two identical runs produce byte-identical
breakdowns (the registry and ``naspipe compare`` rely on this).

See ``docs/ANALYSIS.md`` for the DAG construction rules in prose.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.model import RunModel, _Activity, _complement
from repro.sim.trace import ExecutionTrace

__all__ = [
    "RESOURCE_CLASSES",
    "PathSegment",
    "CriticalPath",
    "critical_path",
    "critical_path_breakdown",
]

#: every resource class a path segment may be charged to
RESOURCE_CLASSES = (
    "alu_busy",
    "nic_transfer",
    "copy_fetch",
    "csp_wait",
    "admission_hold",
    "scheduler_idle",
    "other_stall",
)

_EPS = 1e-9


@dataclass(frozen=True)
class PathSegment:
    """One span of the critical path (virtual ms, chronological)."""

    start: float
    end: float
    resource: str
    stage: int
    label: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The walked path; segments tile ``[start_time, end_time]``."""

    segments: List[PathSegment]
    makespan_ms: float

    def by_resource(self) -> Dict[str, float]:
        """Total path ms per resource class (every class present)."""
        totals = {resource: 0.0 for resource in RESOURCE_CLASSES}
        for segment in self.segments:
            totals[segment.resource] += segment.duration
        return totals

    def by_stage(self) -> Dict[int, float]:
        """Total path ms charged to each stage."""
        totals: Dict[int, float] = {}
        for segment in self.segments:
            totals[segment.stage] = totals.get(segment.stage, 0.0) + segment.duration
        return {stage: totals[stage] for stage in sorted(totals)}


# ----------------------------------------------------------------------
class _Dag:
    """The backwards walk's predecessor rules over one run model."""

    def __init__(self, model: RunModel) -> None:
        self.model = model
        self.last_stage = model.trace.num_gpus - 1
        # per stage: its merged wait windows with their starts and ends,
        # both increasing, for the gap classifier to bisect
        self.waits = {
            stage: (segments, [s for s, _ in segments], [e for _, e in segments])
            for stage, segments in model.wait_segments.items()
        }

    # ------------------------------------------------------------------
    def terminal(self) -> Optional[_Activity]:
        """The activity whose finish defines the end of the run."""
        best: Optional[_Activity] = None
        for chain in self.model.gpu_chain.values():
            for activity in chain:
                if activity.kind != "compute":
                    continue
                if best is None or (activity.end, activity.start, -activity.stage) > (
                    best.end,
                    best.start,
                    -best.stage,
                ):
                    best = activity
        return best

    # ------------------------------------------------------------------
    def _last_compute(
        self, stage: int, subnet: int, direction: str, before: float
    ) -> Optional[_Activity]:
        candidates = self.model.compute_index.get((stage, subnet, direction), ())
        best = None
        for activity in candidates:
            if activity.end <= before + _EPS:
                best = activity
        return best

    def _gpu_pred(self, activity: _Activity) -> Optional[_Activity]:
        chain = self.model.gpu_chain.get(activity.stage, ())
        index = activity.gpu_index - 1
        while index >= 0:
            previous = chain[index]
            if previous.end <= activity.start + _EPS:
                return previous
            index -= 1
        return None

    def _task_data_pred(
        self, stage: int, subnet: int, direction: str, before: float
    ) -> Optional[_Activity]:
        """What delivered this task's input to this stage."""
        if direction == "fwd":
            if stage == 0:
                return self.model.injects.get(subnet)
            transfer = self.model.transfers.get(("fwd", stage, subnet))
        elif stage == self.last_stage:
            # the backward chain starts where the last forward finished
            return self._last_compute(stage, subnet, "fwd", before)
        else:
            transfer = self.model.transfers.get(("bwd", stage, subnet))
        if transfer is not None and transfer.end <= before + _EPS:
            return transfer
        return None

    def _stall_direction(self, activity: _Activity) -> str:
        """Direction of the dispatch a stall belongs to: the next
        compute of the same subnet on the same GPU."""
        chain = self.model.gpu_chain.get(activity.stage, ())
        for following in chain[activity.gpu_index + 1:]:
            if following.kind == "compute" and following.subnet == activity.subnet:
                return following.direction
        return ""

    def predecessor(self, activity: _Activity, cursor: float) -> Optional[_Activity]:
        """The predecessor whose finish bound ``activity``'s start."""
        candidates: List[Tuple[float, int, float, int, _Activity]] = []

        def consider(pred: Optional[_Activity], priority: int) -> None:
            if pred is not None and pred.end <= cursor + _EPS:
                candidates.append(
                    (pred.end, priority, pred.start, pred.stage, pred)
                )

        if activity.kind in ("compute", "stall"):
            consider(self._gpu_pred(activity), 2)
            direction = (
                activity.direction
                if activity.kind == "compute"
                else self._stall_direction(activity)
            )
            if direction:
                consider(
                    self._task_data_pred(
                        activity.stage, activity.subnet, direction, activity.start
                    ),
                    1,
                )
        elif activity.kind == "transfer":
            # fwd transfers leave the src stage's forward; bwd transfers
            # leave the src stage's backward
            consider(
                self._last_compute(
                    activity.stage, activity.subnet, activity.direction,
                    activity.start,
                ),
                1,
            )
        elif activity.kind == "inject":
            # admission released by the most recent subnet completion
            # (its final backward at stage 0); none at stream start
            released_by = self.model.releaser.get(activity.subnet)
            if released_by is not None:
                consider(
                    self._last_compute(0, released_by, "bwd", activity.start), 1
                )
        if not candidates:
            return None
        return max(candidates, key=lambda entry: entry[:4])[1 + 3]


# ----------------------------------------------------------------------
_NO_WAITS: Tuple[list, list, list] = ([], [], [])


def _gap_segments(
    dag: _Dag, activity: _Activity, lo: float, hi: float
) -> List[PathSegment]:
    """Classify idle ``[lo, hi]`` before ``activity`` (chronological)."""
    stage = activity.stage
    # the stage's windows are merged, so both their starts and their
    # ends increase: the ones that reach into (lo, hi) are one slice
    waits, starts, ends = dag.waits.get(stage, _NO_WAITS)
    first = bisect_right(ends, lo)
    covered = waits[first:bisect_left(starts, hi, first)]
    clipped = [(max(lo, s), min(hi, e)) for s, e in covered]
    clipped = [(s, e) for s, e in clipped if e - s > 0]
    if activity.kind == "inject" or (
        activity.kind == "compute"
        and activity.direction == "fwd"
        and activity.stage == 0
    ):
        idle_class = "admission_hold"
    else:
        idle_class = "scheduler_idle"
    segments: List[PathSegment] = []
    for start, end in clipped:
        segments.append(
            PathSegment(start, end, "csp_wait", stage, f"csp wait @P{stage}")
        )
    for start, end in _complement(clipped, lo, hi):
        segments.append(
            PathSegment(start, end, idle_class, stage, f"{idle_class} @P{stage}")
        )
    segments.sort(key=lambda segment: segment.start)
    return segments


def critical_path(trace: ExecutionTrace) -> CriticalPath:
    """Walk the longest chain that ends at the run's final completion.

    The returned segments tile ``[trace.start_time, trace.end_time]``
    exactly (adjacent segments share endpoints), so their lengths sum to
    the measured makespan to float precision.
    """
    return _walk(RunModel(trace))


def _walk(model: RunModel) -> CriticalPath:
    trace = model.trace
    makespan = trace.makespan
    start_time = trace.start_time
    dag = _Dag(model)
    node = dag.terminal()
    if node is None or makespan <= 0:
        segments = (
            [
                PathSegment(
                    start_time,
                    trace.end_time,
                    "scheduler_idle",
                    0,
                    "empty run",
                )
            ]
            if makespan > 0
            else []
        )
        return CriticalPath(segments, makespan)

    reversed_segments: List[PathSegment] = []
    cursor = trace.end_time
    # drain-side idle: the terminal activity may finish before end_time
    # (e.g. the clock advanced past it); classify that tail too
    if node.end < cursor - _EPS:
        for segment in reversed(_gap_segments(dag, node, node.end, cursor)):
            reversed_segments.append(segment)
        cursor = node.end

    limit = 4 * (len(trace.intervals) + len(trace.events)) + 16
    steps = 0
    while True:
        steps += 1
        segment_start = max(node.start, start_time)
        if cursor - segment_start > 0:
            reversed_segments.append(
                PathSegment(
                    segment_start, cursor, node.resource, node.stage, node.label
                )
            )
        cursor = min(cursor, segment_start)
        if cursor <= start_time + _EPS or steps > limit:
            break
        pred = dag.predecessor(node, cursor)
        if pred is None:
            reversed_segments.append(
                PathSegment(
                    start_time,
                    cursor,
                    "scheduler_idle",
                    node.stage,
                    f"unattributed idle @P{node.stage}",
                )
            )
            cursor = start_time
            break
        if pred.end < cursor - _EPS:
            for segment in reversed(
                _gap_segments(dag, node, pred.end, cursor)
            ):
                reversed_segments.append(segment)
            cursor = pred.end
        node = pred

    if cursor > start_time + _EPS:
        # safety net (step-limit trip): keep the tiling invariant
        reversed_segments.append(
            PathSegment(start_time, cursor, "scheduler_idle", 0, "walk truncated")
        )
    return CriticalPath(list(reversed(reversed_segments)), makespan)


def critical_path_breakdown(trace: ExecutionTrace) -> Dict[str, object]:
    """Deterministic JSON-able summary of :func:`critical_path`.

    ``by_resource_ms`` covers every class in :data:`RESOURCE_CLASSES`
    and sums to ``path_ms`` == ``makespan_ms`` (1e-9); ``per_stage_share``
    is each stage's fraction of the path (sums to 1 for non-empty runs).
    """
    return _breakdown(RunModel(trace))


def _breakdown(model: RunModel) -> Dict[str, object]:
    path = _walk(model)
    makespan = path.makespan_ms
    by_resource = path.by_resource()
    by_stage = path.by_stage()
    total = sum(by_resource.values())
    return {
        "schema": 1,
        "makespan_ms": makespan,
        "path_ms": total,
        "num_segments": len(path.segments),
        "by_resource_ms": {k: by_resource[k] for k in sorted(by_resource)},
        "by_resource_fraction": {
            k: (by_resource[k] / makespan if makespan > 0 else 0.0)
            for k in sorted(by_resource)
        },
        "by_stage_ms": {str(stage): ms for stage, ms in by_stage.items()},
        "per_stage_share": {
            str(stage): (ms / makespan if makespan > 0 else 0.0)
            for stage, ms in by_stage.items()
        },
    }
