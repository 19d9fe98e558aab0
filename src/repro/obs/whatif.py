"""What-if projection: analytic lower bounds from one finished trace.

Critical-path analysis (:mod:`repro.obs.critical_path`) says what bound
*this* run; this module asks what the run would have cost had one
subsystem been free.  Every scenario replays the task DAG extracted from
the trace with some durations relaxed and reports the projected
makespan:

* ``as_scheduled`` — nothing relaxed: the replay baseline.  Its gap to
  the measured makespan is the scheduling cost the DAG alone does not
  imply (chiefly CSP ordering holds already absorbed into the observed
  per-GPU order).
* ``zero_fetch_stalls`` — synchronous parameter swap-in waits vanish
  (an ideally provisioned copy engine).
* ``perfect_predictor`` — every context-manager stall vanishes: fetch
  waits *and* the OOM-retry penalties oversubscription causes (the
  paper's §3.3 predictor with perfect foresight and sizing).
* ``infinite_nic`` — activation/gradient transfers land instantly and
  on-demand migrations cost nothing.
* ``no_csp_constraint`` — the ASP bound: the same tasks (observed
  compute durations, no stalls) re-scheduled from scratch by a faithful
  emulation of the engine's ASP dispatch (1B1F alternation, lowest-id
  queues, window = pipeline depth, FIFO links).  This is what the run
  gives up for reproducibility — CSP's scheduling cost in the paper's
  Table 2 sense.

The replay scenarios are *relaxations of a monotone model*: each
activity starts at the max of its predecessors' projected finishes, the
observed per-GPU and per-link orders are kept, and no duration ever
grows — so every projection is a true lower bound on the measured
makespan (asserted by the tests).  ``no_csp_constraint`` re-orders and
is a projection rather than a bound, but in practice lands below the
CSP makespan and within a few percent of an actually-simulated ASP run
(the acceptance test pins 5%).

Everything here is deterministic: dict keys are sorted and scenario
order is fixed, so reports are byte-stable across identical runs.
See ``docs/ANALYSIS.md`` for the model's assumptions in prose.
"""

from __future__ import annotations

import heapq
from bisect import insort
from operator import itemgetter
from typing import Dict, List, Tuple

from repro.obs.model import RunModel
from repro.sim.trace import ExecutionTrace

__all__ = ["SCENARIOS", "what_if_report"]

#: fixed evaluation (and report) order
SCENARIOS = (
    "as_scheduled",
    "zero_fetch_stalls",
    "perfect_predictor",
    "infinite_nic",
    "no_csp_constraint",
)

#: stall resource classes each scenario zeroes in the replay
_DROPPED_STALLS = {
    "as_scheduled": frozenset(),
    "zero_fetch_stalls": frozenset({"copy_fetch"}),
    "perfect_predictor": frozenset({"copy_fetch", "other_stall"}),
    "infinite_nic": frozenset({"nic_transfer"}),
}


# ----------------------------------------------------------------------
# order-preserving replay (the relaxation scenarios)
# ----------------------------------------------------------------------
#: a step's gate: what delivered a compute's input
_ADMISSION, _ARRIVAL, _FINISH = range(3)

#: One replay step, with every key it reads or writes computed once by
#: :func:`_observed_order`.  A compute is ``(False, stage, its done key,
#: gate, gate key, fallback, setup, duration)``: the gate is
#: :data:`_ADMISSION` (key: the subnet; fallback: the releasing
#: backward's done key, or None), :data:`_ARRIVAL` (an arrival key) or
#: :data:`_FINISH` (a done key), with the observed start as fallback;
#: ``setup`` is the ``(resource class, ms)`` stalls observed before it.
#: A transfer is ``(True, link, the sender's done key, observed start,
#: arrival key, wire ms, latency)``.
_Work = List[tuple]


def _observed_order(model: RunModel) -> _Work:
    """Every compute and transfer as a replay step, in observed order
    (observed time, computes first, stage / dst, subnet, direction)."""
    order: List[Tuple[tuple, tuple]] = []
    last_stage = model.num_stages - 1
    for chain in model.gpu_chain.values():
        setup: Dict[str, float] = {}
        for activity in chain:
            if activity.kind == "stall":
                setup[activity.resource] = (
                    setup.get(activity.resource, 0.0) + activity.duration
                )
                continue
            stage, subnet = activity.stage, activity.subnet
            direction = activity.direction
            if direction == "fwd" and stage == 0:
                releaser = model.releaser.get(subnet)
                gate = (
                    _ADMISSION,
                    subnet,
                    (0, releaser, "bwd") if releaser is not None else None,
                )
            elif direction == "fwd":
                gate = (_ARRIVAL, ("fwd", stage, subnet), activity.start)
            elif stage == last_stage:
                gate = (_FINISH, (stage, subnet, "fwd"), activity.start)
            else:
                gate = (_ARRIVAL, ("bwd", stage, subnet), activity.start)
            order.append((
                (activity.start, 0, stage, subnet, direction),
                (False, stage, (stage, subnet, direction), *gate,
                 tuple(setup.items()), activity.duration),
            ))
            setup = {}
    for (_, dst, _), transfer in model.transfers.items():
        src, subnet, direction = transfer.stage, transfer.subnet, transfer.direction
        bandwidth, latency = model.links.get((src, dst), (float("inf"), 0.0))
        order.append((
            (transfer.start, 1, dst, subnet, direction),
            (
                True,
                (src, dst),
                (src, subnet, direction),
                transfer.start,
                ("fwd" if direction == "fwd" else "bwd", dst, subnet),
                transfer.nbytes / bandwidth if bandwidth > 0 else 0.0,
                latency,
            ),
        ))
    order.sort(key=itemgetter(0))
    return [step for _, step in order]


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
    gates = {_ARRIVAL: arrive, _FINISH: done}
    link_free: Dict[Tuple[int, int], float] = {}
    inject_time: Dict[int, float] = {}
    t0 = model.trace.start_time

    gpu_free = {gpu: t0 for gpu in model.gpu_chain}
    end_max = t0
    for step in work:
        if step[0]:
            _, link, sent, observed, key, wire, latency = step
            ready = done.get(sent, observed)
            if nic_zero:
                arrive[key] = ready
                continue
            next_free = max(ready, link_free.get(link, t0)) + wire
            link_free[link] = next_free
            arrive[key] = next_free + latency
            continue
        _, stage, key, gate, gate_key, fallback, setup, duration = step
        if gate == _ADMISSION:
            if gate_key not in inject_time:
                inject_time[gate_key] = (
                    done.get(fallback, t0) if fallback is not None else t0
                )
            ready = inject_time[gate_key]
        else:
            ready = gates[gate].get(gate_key, fallback)
        start = max(gpu_free[stage], ready)
        for cause, ms in setup:
            if cause not in dropped:
                start += ms
        end = start + duration
        gpu_free[stage] = end
        done[key] = end
        end_max = max(end_max, end)
    return end_max - t0


# ----------------------------------------------------------------------
# ASP emulator (the no-CSP bound)
# ----------------------------------------------------------------------
def _asp_bound(model: RunModel) -> float:
    """Re-schedule the observed tasks under the engine's ASP dispatch.

    Mirrors :meth:`PipelineEngine._kick` and friends exactly: 1B1F
    alternation per stage, sorted queues popping the lowest subnet id,
    injection window = pipeline depth, per-link FIFO with the recorded
    bandwidth/latency.  Stall durations are excluded — ASP's cache
    behaviour would differ unpredictably, so the honest analytic choice
    is the stall-free bound.
    """
    stages = model.num_stages
    window = stages  # AspPolicy's default_window
    t0 = model.trace.start_time
    inject_order = list(model.injects)
    last = stages - 1

    fwd_q: List[List[int]] = [[] for _ in range(stages)]
    bwd_q: List[List[int]] = [[] for _ in range(stages)]
    busy = [False] * stages
    last_was_bwd = [False] * stages
    link_free: Dict[Tuple[int, int], float] = {}
    inflight: set = set()
    next_inject = 0
    end_max = t0

    heap: List[Tuple[float, int, str, int, int]] = []
    seq = 0

    def push(time: float, action: str, stage: int, sid: int) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, seq, action, stage, sid))
        seq += 1

    def try_inject(now: float) -> None:
        nonlocal next_inject
        while (
            next_inject < len(inject_order) and len(inflight) < window
        ):
            sid = inject_order[next_inject]
            next_inject += 1
            inflight.add(sid)
            push(now, "arrive_fwd", 0, sid)

    def wire(src: int, dst: int, sid: int, now: float) -> float:
        transfer = model.transfers.get(
            ("fwd" if dst > src else "bwd", dst, sid)
        )
        nbytes = transfer.nbytes if transfer is not None else 0.0
        bandwidth, latency = model.links.get(
            (src, dst), (float("inf"), 0.0)
        )
        start = max(now, link_free.get((src, dst), t0))
        next_free = start + (nbytes / bandwidth if bandwidth > 0 else 0.0)
        link_free[(src, dst)] = next_free
        return next_free + latency

    def begin(stage: int, sid: int, is_bwd: bool, now: float) -> None:
        nonlocal end_max
        busy[stage] = True
        last_was_bwd[stage] = is_bwd
        computes = model.compute_index.get(
            (stage, sid, "bwd" if is_bwd else "fwd")
        )
        end = now + (computes[-1].duration if computes else 0.0)
        end_max = max(end_max, end)
        push(end, "done_bwd" if is_bwd else "done_fwd", stage, sid)

    def kick(stage: int, now: float) -> None:
        if busy[stage]:
            return
        prefer_forward = last_was_bwd[stage]
        if prefer_forward and fwd_q[stage]:
            begin(stage, fwd_q[stage].pop(0), False, now)
            return
        if bwd_q[stage]:
            begin(stage, bwd_q[stage].pop(0), True, now)
            return
        if not prefer_forward and fwd_q[stage]:
            begin(stage, fwd_q[stage].pop(0), False, now)

    try_inject(t0)
    while heap:
        now, _, action, stage, sid = heapq.heappop(heap)
        if action == "arrive_fwd":
            insort(fwd_q[stage], sid)
            kick(stage, now)
        elif action == "arrive_bwd":
            insort(bwd_q[stage], sid)
            kick(stage, now)
        elif action == "done_fwd":
            busy[stage] = False
            if stage < last:
                push(wire(stage, stage + 1, sid, now),
                     "arrive_fwd", stage + 1, sid)
            else:
                insort(bwd_q[stage], sid)
            kick(stage, now)
        else:  # done_bwd
            busy[stage] = False
            if stage > 0:
                push(wire(stage, stage - 1, sid, now),
                     "arrive_bwd", stage - 1, sid)
            else:
                inflight.discard(sid)
                try_inject(now)
            kick(stage, now)
    return end_max - t0


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
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
    return _report(RunModel(trace))


def _report(model: RunModel) -> Dict[str, object]:
    """:func:`what_if_report` over a model already built."""
    measured = model.trace.makespan
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

