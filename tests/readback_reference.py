"""The trace readers as they were before they read each fact once per
call, as a reference.

Through commit ``06d6dd7`` the run model built a ``TraceEvent`` row for
every kind it read and a frozen-dataclass activity per interval, the
bubble attribution restarted its overlap scan at the first segment on
every gap, the gap classifier filtered every wait window of the stage
on every gap, the what-if replays rebuilt their dependency keys on
every step, ``ExecutionTrace.event_counts`` counted in a Python loop and
the exporter rendered every typed row from scratch.  This module is that
code, copied verbatim (``event_counts`` as a function of the trace, which
``run_summary`` calls), so
``tests/test_readback_reference.py`` can assert that the readers still
produce the same bytes for any run.  What those readers share with the
live code unchanged (the interval helpers, the result records, the ASP
emulator, the exporter's value spelling and metadata writer)
is imported from it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.critical_path import CriticalPath, PathSegment
from repro.obs.exporter import (
    _INSTANTS,
    _INTERVAL_NAMES,
    _PID_COPY,
    _PID_GPU,
    _PID_NIC,
    _PID_SCHED,
    _PROCESS_NAMES,
    _json,
    _meta,
    _quote,
)
from repro.obs.model import WaitWindow, _complement, _merge
from repro.obs.summary import StageBubbles, mean_attribution
from repro.obs.whatif import _DROPPED_STALLS, SCENARIOS, _asp_bound
from repro.payload import compact
from repro.sim.trace import ExecutionTrace

_Segment = Tuple[float, float]

_EPS = 1e-9


# ----------------------------------------------------------------------
# sim/trace.py
# ----------------------------------------------------------------------
def event_counts(trace) -> Dict[str, int]:
    """``{kind: occurrences}``, sorted by kind (deterministic)."""
    counts: Dict[str, int] = {}
    for kind in trace.events.kind:
        counts[kind] = counts.get(kind, 0) + 1
    return {kind: counts[kind] for kind in sorted(counts)}


# ----------------------------------------------------------------------
# obs/model.py
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# obs/summary.py
# ----------------------------------------------------------------------
def _attribution(model: RunModel) -> List[StageBubbles]:
    trace = model.trace
    makespan = trace.makespan
    per_stage: List[StageBubbles] = []
    for stage, chain in model.gpu_chain.items():
        compute = _merge([(a.start, a.end) for a in chain if a.kind == "compute"])
        stalls = _merge([(a.start, a.end) for a in chain if a.kind == "stall"])
        wait_segments = model.wait_segments.get(stage, [])
        busy = trace.busy_time(stage, compute_only=True)
        idle = max(0.0, makespan - busy)

        if makespan <= 0:
            per_stage.append(
                StageBubbles(stage, 0.0, busy, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            )
            continue

        first_compute = compute[0][0] if compute else trace.end_time
        last_compute = compute[-1][1] if compute else trace.end_time
        startup = fetch_stall = csp_wait = drain = 0.0
        for gap in _complement(compute, trace.start_time, trace.end_time):
            stalled = _overlap([gap], stalls)
            fetch_stall += stalled
            remainder = (gap[1] - gap[0]) - stalled
            if remainder <= 0:
                continue
            if gap[1] <= first_compute:
                # Fill phase: idle before the stage's first task (minus
                # any stall already attributed above).
                startup += remainder
            elif gap[0] >= last_compute:
                drain += remainder
            else:
                waited = min(remainder, _overlap([gap], wait_segments))
                csp_wait += waited
        other = idle - startup - fetch_stall - csp_wait - drain
        per_stage.append(
            StageBubbles(
                stage=stage,
                makespan_ms=makespan,
                busy_ms=busy,
                idle_ms=idle,
                startup_ms=startup,
                fetch_stall_ms=fetch_stall,
                csp_wait_ms=csp_wait,
                drain_ms=drain,
                other_idle_ms=other,
            )
        )
    return per_stage


def run_summary(result) -> Dict[str, object]:
    """Deterministic summary dict for one :class:`PipelineResult`.

    ``bubble_attribution`` holds mean fractions across stages; their sum
    equals ``bubble_ratio`` to float precision (tested at 1e-9).
    """
    trace: ExecutionTrace = result.trace
    model = RunModel(trace)
    cp_share = _breakdown(model)["per_stage_share"]
    stages = _attribution(model)
    return {
        "schema": 1,
        "system": result.system,
        "space": result.space,
        "num_gpus": result.num_gpus,
        "batch": result.batch,
        "makespan_ms": trace.makespan,
        "subnets_completed": result.subnets_completed,
        "throughput_samples_per_sec": result.throughput_samples_per_sec,
        "bubble_ratio": trace.bubble_ratio(),
        "bubble_attribution": mean_attribution(stages),
        "per_stage": [
            {
                "stage": stage.stage,
                "busy_ms": stage.busy_ms,
                "idle_ms": stage.idle_ms,
                "startup_ms": stage.startup_ms,
                "fetch_stall_ms": stage.fetch_stall_ms,
                "csp_wait_ms": stage.csp_wait_ms,
                "drain_ms": stage.drain_ms,
                "other_idle_ms": stage.other_idle_ms,
                # this stage's share of the run's critical path — the
                # same number the text rendering prints, so the two
                # summaries cannot disagree
                "cp_share": cp_share.get(str(stage.stage), 0.0),
            }
            for stage in stages
        ],
        "cache": {
            "hits": trace.cache_hits,
            "misses": trace.cache_misses,
            "hit_rate": trace.cache_hit_rate(),
        },
        "total_alu": result.total_alu,
        "mean_exec_ms": result.mean_exec_ms,
        "event_counts": event_counts(trace),
    }


# ----------------------------------------------------------------------
# obs/critical_path.py
# ----------------------------------------------------------------------
class _Dag:
    """The backwards walk's predecessor rules over one run model."""

    def __init__(self, model: RunModel) -> None:
        self.model = model
        self.last_stage = model.trace.num_gpus - 1

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
def _gap_segments(
    dag: _Dag, activity: _Activity, lo: float, hi: float
) -> List[PathSegment]:
    """Classify idle ``[lo, hi]`` before ``activity`` (chronological)."""
    stage = activity.stage
    waits = dag.model.wait_segments.get(stage, [])
    covered = _merge([w for w in waits if w[1] > lo and w[0] < hi])
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


# ----------------------------------------------------------------------
# obs/whatif.py
# ----------------------------------------------------------------------
_Work = List[Tuple[float, int, int, object, Optional[Dict[str, float]]]]


def _observed_order(model: RunModel) -> _Work:
    """Every compute and transfer as ``(observed time, computes first,
    stage / dst, activity, setup)`` in observed order; ``setup`` is the
    stall ms observed before a compute, per resource class."""
    work: _Work = []
    for chain in model.gpu_chain.values():
        setup: Dict[str, float] = {}
        for activity in chain:
            if activity.kind == "stall":
                setup[activity.resource] = (
                    setup.get(activity.resource, 0.0) + activity.duration
                )
            else:
                work.append((activity.start, 0, activity.stage, activity, setup))
                setup = {}
    for (_, dst, _), transfer in model.transfers.items():
        work.append((transfer.start, 1, dst, transfer, None))
    work.sort(key=lambda entry: (entry[0], entry[1], entry[2],
                                 entry[3].subnet, entry[3].direction))
    return work


def _replay(
    model: RunModel, work: _Work, dropped: frozenset, nic_zero: bool
) -> float:
    """Earliest-start forward pass over the observed-order DAG.

    Processing in observed start-time order is valid: every dependency
    finished before its dependent started in the observed run, so the
    observed order is a topological order that also preserves per-GPU
    serial order and per-link FIFO order.
    """
    done: Dict[Tuple[int, int, str], float] = {}  # compute -> projected end
    arrive: Dict[Tuple[str, int, int], float] = {}  # transfer -> arrival
    link_free: Dict[Tuple[int, int], float] = {}
    inject_time: Dict[int, float] = {}
    last_stage = model.num_stages - 1
    t0 = model.trace.start_time

    gpu_free = {gpu: t0 for gpu in model.gpu_chain}
    end_max = t0
    for _, _, dst, item, setup in work:
        if item.kind == "compute":
            deps = [gpu_free[item.stage]]
            if item.direction == "fwd":
                if item.stage == 0:
                    sid = item.subnet
                    if sid not in inject_time:
                        releaser = model.releaser.get(sid)
                        inject_time[sid] = done.get((0, releaser, "bwd"), t0) \
                            if releaser is not None else t0
                    deps.append(inject_time[sid])
                else:
                    deps.append(
                        arrive.get(("fwd", item.stage, item.subnet),
                                   item.start)
                    )
            elif item.stage == last_stage:
                deps.append(
                    done.get((item.stage, item.subnet, "fwd"), item.start)
                )
            else:
                deps.append(
                    arrive.get(("bwd", item.stage, item.subnet),
                               item.start)
                )
            start = max(deps)
            for cause, ms in setup.items():
                if cause not in dropped:
                    start += ms
            end = start + item.duration
            gpu_free[item.stage] = end
            done[(item.stage, item.subnet, item.direction)] = end
            end_max = max(end_max, end)
        else:
            src = item.stage
            ready = done.get((src, item.subnet, item.direction), item.start)
            key = ("fwd" if item.direction == "fwd" else "bwd",
                   dst, item.subnet)
            if nic_zero:
                arrive[key] = ready
                continue
            bandwidth, latency = model.links.get(
                (src, dst), (float("inf"), 0.0)
            )
            wire_start = max(ready, link_free.get((src, dst), t0))
            next_free = wire_start + (
                item.nbytes / bandwidth if bandwidth > 0 else 0.0
            )
            link_free[(src, dst)] = next_free
            arrive[key] = next_free + latency
    return end_max - t0


def _project(model: RunModel, work: _Work, scenario: str) -> float:
    if scenario == "no_csp_constraint":
        return _asp_bound(model)
    return _replay(
        model, work, _DROPPED_STALLS[scenario], nic_zero=scenario == "infinite_nic"
    )


def what_if_report(trace: ExecutionTrace) -> Dict[str, object]:
    """All scenarios, ranked by projected savings (deterministic).

    ``ranked`` orders the *relaxation* scenarios (everything but the
    ``as_scheduled`` baseline) by descending savings — the "optimise
    this next" list; ties break on scenario name.
    """
    measured = trace.makespan
    model = RunModel(trace)
    work = _observed_order(model)
    scenarios: Dict[str, Dict[str, float]] = {}
    for name in SCENARIOS:
        projected = _project(model, work, name)
        savings = measured - projected
        scenarios[name] = {
            "projected_makespan_ms": projected,
            "savings_ms": savings,
            "savings_fraction": savings / measured if measured > 0 else 0.0,
        }
    ranked = sorted(
        (name for name in SCENARIOS if name != "as_scheduled"),
        key=lambda name: (-scenarios[name]["savings_ms"], name),
    )
    return {
        "schema": 1,
        "measured_makespan_ms": measured,
        "scenarios": {name: scenarios[name] for name in sorted(scenarios)},
        "ranked": ranked,
    }


# ----------------------------------------------------------------------
# obs/exporter.py
# ----------------------------------------------------------------------
# The kinds that are not that shape.  A renderer returns what the sort
# reads besides the row's pid/phase — ``tid`` (-1: the event has none)
# and ``name`` — and the event's canonical JSON text, keys in sorted
# order, with ``track`` (the row's ``"ph":…,"pid":…``) in its place.
def _prefetch_issue(time, stage, subnet_id, attrs, cache_totals, track):
    land = float(attrs["land"])
    name = "{}fetch B{}.c{}".format(
        "demand " if attrs["demand"] else "pre",
        attrs["block"],
        attrs["choice"],
    )
    return stage, name, (
        f'{{"args":{{"bytes":{_json(attrs["nbytes"])},'
        f'"demand":{_json(attrs["demand"])}}},"cat":"copy",'
        f'"dur":{_json(max(0.0, land - time))},"name":{_quote(name)},{track},'
        f'"tid":{_json(stage)},"ts":{_json(time)}}}'
    )


def _eviction(time, stage, subnet_id, attrs, cache_totals, track):
    name = f"evict B{attrs['block']}.c{attrs['choice']}"
    return stage, name, (
        f'{{"args":{{"bytes":{_json(attrs["nbytes"])},'
        f'"dirty":{_json(attrs["dirty"])},"reason":{_json(attrs["reason"])}}},'
        f'"cat":"evict","name":{_quote(name)},{track},"s":"t",'
        f'"tid":{_json(stage)},"ts":{_json(time)}}}'
    )


def _cache_access(time, stage, subnet_id, attrs, cache_totals, track):
    """Cumulative per-stage hit/miss counter."""
    totals = cache_totals.setdefault(stage, [0, 0])
    totals[0] += int(attrs["hits"])
    totals[1] += int(attrs["misses"])
    name = f"cache P{stage}"
    return -1, name, (
        f'{{"args":{{"hits":{totals[0]},"misses":{totals[1]}}},'
        f'"name":{_quote(name)},{track},"ts":{_json(time)}}}'
    )


def _nic_transfer(time, stage, subnet_id, attrs, cache_totals, track):
    src = int(attrs["src"])
    fwd = attrs["direction"] == "fwd"
    arrive = float(attrs["arrive"])
    name = "SN{} {}".format(subnet_id, "activation" if fwd else "gradient")
    tid = 2 * (src if fwd else src - 1) + (0 if fwd else 1)
    return tid, name, (
        f'{{"args":{{"bytes":{_json(attrs["nbytes"])},"dst":{_json(attrs["dst"])},'
        f'"src":{_json(attrs["src"])},"subnet":{_json(subnet_id)}}},"cat":"nic",'
        f'"dur":{_json(max(0.0, arrive - time))},"name":{_quote(name)},{track},'
        f'"tid":{tid},"ts":{_json(time)}}}'
    )


def _ready_set(time, stage, subnet_id, attrs, cache_totals, track):
    name = f"ready set P{stage}"
    return -1, name, (
        f'{{"args":{{"size":{_json(attrs["size"])}}},"name":{_quote(name)},'
        f'{track},"ts":{_json(time)}}}'
    )


def _queue_depth(time, stage, subnet_id, attrs, cache_totals, track):
    name = f"queues P{stage}"
    return -1, name, (
        f'{{"args":{{"bwd":{_json(attrs["bwd"])},"fwd":{_json(attrs["fwd"])}}},'
        f'"name":{_quote(name)},{track},"ts":{_json(time)}}}'
    )


def _subnet_complete(time, stage, subnet_id, attrs, cache_totals, track):
    name = f"SN{subnet_id} complete"
    return 0, name, (
        f'{{"args":{{"subnet":{_json(subnet_id)}}},"cat":"completion",'
        f'"name":{_quote(name)},{track},"s":"g","tid":0,"ts":{_json(time)}}}'
    )


def _mitigation_apply(time, stage, subnet_id, attrs, cache_totals, track):
    name = f"{attrs['action']} {'on' if attrs['active'] else 'off'}"
    return 0, name, (
        f'{{"args":{compact(attrs)},"cat":"mitigation","name":{_quote(name)},'
        f'{track},"s":"g","tid":0,"ts":{_json(time)}}}'
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


def _instant(kind, time, stage, subnet_id, attrs, row):
    """An :data:`_INSTANTS` event: ``(tid, name, text)`` like a renderer."""
    pid, category, scope, on_stage_thread, name_format = row
    name = name_format.format(kind=kind, stage=stage, subnet=subnet_id, **attrs)
    tid = max(0, stage) if on_stage_thread else 0
    return tid, name, (
        f'{{"args":{compact(attrs)},"cat":"{category}","name":{_quote(name)},'
        f'"ph":"i","pid":{pid},"s":"{scope}","tid":{_json(tid)},"ts":{_json(time)}}}'
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
            f'"ts":{_json(interval.start)}}}',
        ))

    # -- typed events ---------------------------------------------------
    specials = {
        kind: (pid, phase, render, f'"ph":"{phase}","pid":{pid}')
        for kind, (pid, phase, render) in _SPECIAL.items()
    }
    cache_totals: Dict[int, List[int]] = {}
    for kind, time, stage, subnet_id, pairs in trace.events.rows():
        special = specials.get(kind)
        if special is not None:
            pid, phase, render, track = special
            tid, name, text = render(
                time, stage, subnet_id, dict(pairs), cache_totals, track
            )
            events.append(((1, time, pid, tid, name, phase), text))
            continue
        instant = _INSTANTS.get(kind)
        if instant is not None:
            tid, name, text = _instant(
                kind, time, stage, subnet_id, dict(pairs), instant
            )
            events.append(((1, time, instant[0], tid, name, "i"), text))

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
                f'"ts":{_json(window.start)}}}',
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
