"""Job-level scheduling above the pipeline engine (``repro.service``).

One :class:`JobScheduler` drives N concurrent supernet-training jobs
over a shared fleet owned by a :class:`~repro.service.manager.
ClusterManager`.  Jobs arrive on a **service virtual clock** (the same
discrete-event machinery the engine uses, one level up), wait in an
admission queue, and run as a sequence of *segments*:

* a segment trains ``quantum`` consecutive subnets of the job's stream
  on a leased GPU set — a fresh :class:`~repro.engines.pipeline.
  PipelineEngine` per segment over the job's **persistent** functional
  plane, with the stream slice resumed at its original sequence IDs
  (exactly the elastic-rescale construction of
  :mod:`repro.ft.recovery`);
* a segment boundary is a **consistent cut**: the engine has drained, so
  the plane holds precisely the sequential prefix state after the
  segment's last subnet.  All scheduling decisions — grow, shrink,
  preemption — take effect only at these cuts, because they are the only
  points where a job can change shape without changing its bits.

Allocation is fair-share weighted by priority: every runnable job first
reserves ``min_gpus`` in precedence order (higher priority first, FIFO
within a priority), then the remaining GPUs are apportioned in
proportion to priority, capped at each job's ``max_gpus``, with
deterministic largest-remainder rounding.  Jobs that cannot fit wait in
the admission queue; a running job squeezed to zero at a boundary is
preempted back into the queue and resumes later from its cut.

**Per-tenant determinism.**  Under CSP a job's final weights are a pure
function of its subnet stream (Definition 1), and segment boundaries are
consistent cuts — so a job's loss digest is bitwise identical to its
solo run *regardless of co-tenants, allocation history, or mid-run
resizes*.  Jobs under other sync modes (ASP/BSP/SSP) have no consistent
cuts mid-stream; the scheduler therefore runs them **rigid**: one
segment, fixed allocation, no elasticity — their digest then matches a
solo run at the same GPU count, but they cannot be preempted or
resized.  ``verify_solo`` re-runs every job alone and checks both
claims.

**Fleet unreliability.**  :meth:`JobScheduler.inject_fleet_faults` arms
a fleet-scoped :class:`~repro.ft.faults.FaultSchedule`
(``slot_preempt`` / ``node_down``): each event revokes the struck
slots' leases through :meth:`~repro.service.manager.ClusterManager.
revoke` and the scheduler reacts *at the next consistent cut* —

* an **elastic (CSP)** job's in-flight segment drains to its quantum
  cut (the revocation grace window), its deferred release of the
  revoked lease is idempotent, and the next ``fair_share`` pass replans
  it onto the shrunken fleet; the carried plane makes the digest
  provably unchanged;
* a **rigid** (non-CSP) job has no mid-stream cut: its segment is
  aborted and discarded, and the job re-queues with exponential backoff
  to restart from subnet 0 — until its ``max_restarts`` budget runs
  out, at which point *that job* fails (status ``failed``, structured
  failure record in the report) while the fleet keeps running;
* struck slots sit in the manager's down pool for the fault's
  ``duration_ms``, then return and trigger a replan.

Everything is deterministic: identical service configs produce
byte-identical reports (``tests/goldens.json`` pins the demo's), and the service timeline is itself a schema-validated
:class:`~repro.sim.trace.ExecutionTrace` carrying the ``job_*`` and
``lease_revoke`` event kinds documented in ``docs/TRACING.md``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.baselines import resolve_target
from repro.config import SystemConfig
from repro.engines.functional_plane import FUNCTIONAL_BATCH, STREAM_KIND, FunctionalPlane
from repro.engines.pipeline import PipelineEngine
from repro.errors import ServiceConfigError, ServiceError
from repro.ft.availability import failure_summary
from repro.ft.faults import FaultEvent, FaultSchedule
from repro.ft.recovery import (
    JobMemo,
    build_stream,
    fresh_plane,
    rewarm_prefetch,
    run_uninterrupted,
)
from repro.invariants import diverged, same_training
from repro.payload import at_least, build, check_ranges, compact, indented, positive
from repro.service.manager import ClusterManager
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import SimulationEngine
from repro.sim.trace import ExecutionTrace
from repro.supernet.sampler import SubnetStream, check_stream_kind
from repro.supernet.search_space import SearchSpace
from repro.supernet.subnet import Subnet
from repro.supernet.supernet import Supernet

__all__ = [
    "JobSpec",
    "JobScheduler",
    "SchedulerKnobs",
    "ServiceConfig",
    "fair_share",
    "solo_verdict",
    "run_service",
    "format_service_report",
    "service_report_json",
]

@dataclass(frozen=True)
class JobSpec:
    """One tenant's training request."""

    name: str
    space: str
    system: str = "NASPipe"
    subnets: int = at_least(1, default=16)
    seed: int = 2022
    #: fair-share weight and admission precedence
    priority: int = at_least(1, default=1)
    #: service virtual time of arrival
    submit_ms: float = 0.0
    #: smallest allocation the job will accept
    min_gpus: int = at_least(1, default=1)
    #: largest allocation the job can use
    max_gpus: int = 8
    batch: Optional[int] = None
    functional_batch: int = at_least(1, default=FUNCTIONAL_BATCH)
    stream_kind: str = STREAM_KIND
    space_overrides: Optional[Mapping] = None
    #: system-config overrides forwarded to :func:`system_by_name`
    overrides: Optional[Mapping] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ServiceConfigError("a job needs a non-empty name")
        check_ranges(self, self.name, ServiceConfigError)
        if self.max_gpus < self.min_gpus:
            raise ServiceConfigError(
                f"{self.name}: need 1 <= min_gpus <= max_gpus, got "
                f"[{self.min_gpus}, {self.max_gpus}]"
            )
        if self.submit_ms < 0:
            raise ServiceConfigError(f"{self.name}: submit_ms must be >= 0")
        check_stream_kind(self.stream_kind)

    @classmethod
    def from_payload(cls, payload: Mapping, path: str = "job") -> "JobSpec":
        """Build from a ``serve`` config entry; unknown keys, override
        fields and systems are loud :class:`~repro.errors.ConfigError`s
        naming ``path`` (silent typos would silently change a tenant's
        run)."""
        spec = build(cls, payload, path)
        spec.resolve(path)
        return spec

    def resolve(self, path: str = "job") -> Tuple[SearchSpace, SystemConfig]:
        """The search space and system config this job trains."""
        return resolve_target(
            self.space, self.space_overrides, self.system, self.overrides, path
        )


@dataclass
class _Segment:
    """One engine incarnation of a job."""

    start_ms: float
    end_ms: float
    gpus: int
    slots: Tuple[int, ...]
    cursor_from: int
    cursor_to: int
    makespan_ms: float


@dataclass
class _PendingSegment:
    """An in-flight segment: the engine result is held back until the
    segment's virtual end — the consistent cut — so a fleet fault can
    still abort it (rigid jobs) before any state merges."""

    result: object  # PipelineResult
    lease: object  # DeviceLease
    end_cursor: int
    start_ms: float
    end_ms: float
    granted: int
    delay: float
    handle: object  # cancellable sim-event handle


@dataclass
class _JobState:
    """Scheduler-internal mutable state of one job."""

    spec: JobSpec
    index: int  # arrival order (submission call order)
    config: SystemConfig = None  # type: ignore[assignment]
    space: SearchSpace = None  # type: ignore[assignment]
    supernet: Supernet = None  # type: ignore[assignment]
    plane: FunctionalPlane = None  # type: ignore[assignment]
    subnets: List[Subnet] = field(default_factory=list)
    #: pending (pre-arrival) | queued | boundary | running | done | failed
    status: str = "pending"
    cursor: int = 0
    #: allocation cap after fleet/space clamping
    gpus_cap: int = 0
    last_gpus: int = 0
    ever_ran: bool = False
    started_ms: Optional[float] = None
    finished_ms: Optional[float] = None
    gpu_ms: float = 0.0
    overhead_ms: float = 0.0
    preemptions: int = 0
    resizes: int = 0
    losses: Dict[int, float] = field(default_factory=dict)
    digest: Optional[str] = None
    segments: List[_Segment] = field(default_factory=list)
    #: the segment currently in flight (result deferred to its cut)
    pending: Optional[_PendingSegment] = None
    #: rigid-restart bookkeeping (fleet revocations)
    restarts: int = 0
    not_before: float = 0.0
    lost_virtual_ms: float = 0.0
    failure: Optional[Dict] = None

    @property
    def preemptible(self) -> bool:
        """Only CSP jobs have consistent cuts mid-stream; everything
        else runs rigid (one segment, fixed size)."""
        return self.config.sync == "csp"

    @property
    def remaining(self) -> int:
        return len(self.subnets) - self.cursor


def fair_share(
    total: int, demands: Sequence[Tuple[str, int, int, int]]
) -> Dict[str, int]:
    """Priority-weighted fair-share apportionment of ``total`` GPUs.

    ``demands`` is ``(name, priority, min_gpus, max_gpus)`` in precedence
    order (higher priority first, then arrival).  Admission first
    reserves each job's minimum in precedence order — a job whose
    minimum no longer fits gets 0 (waits).  The leftover is then split
    proportionally to priority among admitted jobs, capped at their
    maxima, with deterministic largest-remainder rounding (capped floors
    first, then single GPUs in precedence order).
    """
    alloc: Dict[str, int] = {}
    admitted: List[Tuple[str, int, int, int]] = []
    left = total
    for name, priority, min_gpus, max_gpus in demands:
        if min_gpus <= left:
            alloc[name] = min_gpus
            left -= min_gpus
            admitted.append((name, priority, min_gpus, max_gpus))
        else:
            alloc[name] = 0
    while left > 0:
        open_ = [d for d in admitted if alloc[d[0]] < d[3]]
        if not open_:
            break
        weight = sum(d[1] for d in open_)
        gave = 0
        for name, priority, _min, max_gpus in open_:
            extra = min((left * priority) // weight, max_gpus - alloc[name])
            alloc[name] += extra
            gave += extra
        if gave == 0:
            # floors all rounded to zero: hand out single GPUs in
            # precedence order until the remainder is gone
            for name, _priority, _min, max_gpus in open_:
                if gave == left:
                    break
                if alloc[name] < max_gpus:
                    alloc[name] += 1
                    gave += 1
        if gave == 0:  # pragma: no cover - guarded by open_ check
            break
        left -= gave
    return alloc


@dataclass(frozen=True)
class SchedulerKnobs:
    """The :class:`JobScheduler` knobs a service or fleet config may set."""

    #: subnets a segment trains between two consistent cuts
    quantum: int = at_least(1, default=8)
    #: virtual downtime charged when a job changes shape at a cut
    #: (checkpoint hand-off + engine respawn, as in RecoverySpec)
    resize_cost_ms: float = 50.0
    #: restart budget for rigid jobs aborted by lease revocation
    max_restarts: int = at_least(0, default=3)
    #: first re-queue backoff; doubles per consecutive restart
    requeue_backoff_ms: float = positive(default=25.0)
    #: contiguous slot-group size a ``node_down`` takes out
    slots_per_node: int = at_least(1, default=4)

    def __post_init__(self) -> None:
        check_ranges(self, "scheduler", ServiceConfigError)


class JobScheduler:
    """Admission queue + fair-share allocator + elastic segment driver."""

    def __init__(
        self,
        manager: ClusterManager,
        *,
        telemetry=None,
        memo: Optional[JobMemo] = None,
        **knobs,
    ) -> None:
        self.manager = manager
        #: ``knobs`` are :class:`SchedulerKnobs` fields (the rest keep its
        #: defaults), each an attribute of the scheduler
        vars(self).update(vars(SchedulerKnobs(**knobs)))
        self.trace = ExecutionTrace(num_gpus=manager.total_gpus)
        self.sim = SimulationEngine(trace=self.trace)
        #: the manager meters slot holdings on this plane's virtual clock
        manager.clock = self.sim.clock
        #: optional :class:`~repro.obs.telemetry.TelemetryHub` — pure
        #: observer (trace listener + scrape events + usage observer);
        #: arming it changes no scheduling decision and no report byte
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self.trace, self.sim, manager)
        #: each job's seeded inputs (every segment, restart and solo run
        #: of a job starts from them) and the solo verdicts
        self.memo = memo if memo is not None else JobMemo()
        self._jobs: Dict[str, _JobState] = {}
        self._plan_pending = False
        self._ran = False
        self.fleet_faults = 0

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> None:
        """Register a job; it arrives on the service clock at
        ``spec.submit_ms``."""
        if self._ran:
            raise ServiceError("scheduler already ran; build a fresh one")
        if spec.name in self._jobs:
            raise ServiceConfigError(f"duplicate job name {spec.name!r}")
        state = _JobState(spec=spec, index=len(self._jobs))
        state.space, state.config = spec.resolve()
        space = state.space
        state.gpus_cap = min(
            spec.max_gpus, self.manager.total_gpus, space.num_blocks
        )
        if spec.min_gpus > state.gpus_cap:
            raise ServiceConfigError(
                f"{spec.name}: min_gpus={spec.min_gpus} can never be "
                f"satisfied (fleet {self.manager.total_gpus}, "
                f"{space.num_blocks} choice blocks, max_gpus {spec.max_gpus})"
            )
        self._jobs[spec.name] = state
        self.sim.schedule(
            spec.submit_ms,
            lambda: self._on_submit(spec.name),
            label=f"submit {spec.name}",
        )

    def _on_submit(self, name: str) -> None:
        state = self._jobs[name]
        state.status = "queued"
        # lazy build at arrival: the plane/stream exist only once the
        # job is actually in the system
        state.supernet, state.plane = fresh_plane(
            state.space, state.spec.seed, state.spec.functional_batch, memo=self.memo
        )
        state.subnets = list(
            build_stream(
                state.space,
                state.spec.seed,
                state.spec.subnets,
                state.spec.stream_kind,
            )
        )
        spec = state.spec
        self.trace.record_event(
            "job_submit",
            self.sim.now,
            job=spec.name,
            priority=spec.priority,
            subnets=spec.subnets,
            min_gpus=spec.min_gpus,
            max_gpus=state.gpus_cap,
        )
        self._request_plan()

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _request_plan(self) -> None:
        """Coalesce same-instant wake-ups into one allocation pass: the
        plan event runs at low priority, after every submission and
        segment completion due at this timestamp has been processed."""
        if not self._plan_pending:
            self._plan_pending = True
            self.sim.schedule(self.sim.now, self._plan, priority=10, label="plan")

    def _candidates(self) -> List[_JobState]:
        """Runnable jobs in precedence order (-priority, arrival).
        Re-queued rigid jobs sit out their backoff (``not_before``)."""
        now = self.sim.now
        runnable = [
            state
            for state in self._jobs.values()
            if state.status in ("queued", "boundary")
            and now >= state.not_before
        ]
        return sorted(runnable, key=lambda s: (-s.spec.priority, s.index))

    def _plan(self) -> None:
        self._plan_pending = False
        candidates = self._candidates()
        if not candidates:
            return
        alloc = fair_share(
            self.manager.available_gpus,
            [
                (s.spec.name, s.spec.priority, s.spec.min_gpus, s.gpus_cap)
                for s in candidates
            ],
        )
        for state in candidates:
            granted = alloc[state.spec.name]
            if granted == 0:
                if state.status == "boundary":
                    # squeezed out by higher-priority tenants: back to
                    # the admission queue, to resume from the cut
                    state.status = "queued"
                    state.preemptions += 1
                    self.trace.record_event(
                        "job_preempt",
                        self.sim.now,
                        job=state.spec.name,
                        gpus=state.last_gpus,
                        cut=state.cursor,
                    )
                continue
            self._start_segment(state, granted)

    # ------------------------------------------------------------------
    # segments
    # ------------------------------------------------------------------
    def _start_segment(self, state: _JobState, granted: int) -> None:
        now = self.sim.now
        spec = state.spec
        lease = self.manager.acquire(spec.name, granted)
        delay = 0.0
        if state.status == "queued":
            if state.ever_ran:
                # resuming after preemption pays the same respawn cost
                # as a resize (fresh engine over returned hardware)
                delay = self.resize_cost_ms
            self.trace.record_event(
                "job_start",
                now,
                job=spec.name,
                gpus=granted,
                slots=",".join(str(s) for s in lease.slots),
                cut=state.cursor,
            )
            if state.started_ms is None:
                state.started_ms = now
        elif granted != state.last_gpus:
            delay = self.resize_cost_ms
            state.resizes += 1
            self.trace.record_event(
                "job_resize",
                now,
                job=spec.name,
                gpus_from=state.last_gpus,
                gpus_to=granted,
                cut=state.cursor,
            )
        end_cursor = (
            min(state.cursor + self.quantum, len(state.subnets))
            if state.preemptible
            else len(state.subnets)
        )
        stream = SubnetStream(
            state.subnets[state.cursor : end_cursor], start=state.cursor
        )
        engine = PipelineEngine(
            state.supernet,
            stream,
            state.config,
            lease,
            batch=spec.batch,
            functional=state.plane,
        )
        if delay > 0.0:
            rewarm_prefetch(engine, state.subnets[state.cursor])
        result = engine.run()
        start_ms = now + delay
        end_ms = start_ms + result.makespan_ms
        state.status = "running"
        state.ever_ran = True
        state.last_gpus = granted
        # The result merges only at the segment's virtual end — the
        # consistent cut.  Until then it is provisional: a fleet fault
        # can cancel the handle and discard it (rigid abort).
        handle = self.sim.schedule(
            end_ms,
            lambda: self._on_segment_done(state.spec.name),
            label=f"segment {spec.name}@{end_cursor}",
        )
        state.pending = _PendingSegment(
            result=result,
            lease=lease,
            end_cursor=end_cursor,
            start_ms=start_ms,
            end_ms=end_ms,
            granted=granted,
            delay=delay,
            handle=handle,
        )

    def _on_segment_done(self, name: str) -> None:
        state = self._jobs[name]
        pending = state.pending
        assert pending is not None
        state.pending = None
        pending.lease.release()  # idempotent if the lease was revoked
        result = pending.result
        state.losses.update(result.losses)
        state.segments.append(
            _Segment(
                start_ms=pending.start_ms,
                end_ms=pending.end_ms,
                gpus=pending.granted,
                slots=pending.lease.slots,
                cursor_from=state.cursor,
                cursor_to=pending.end_cursor,
                makespan_ms=result.makespan_ms,
            )
        )
        state.gpu_ms += pending.granted * result.makespan_ms
        state.overhead_ms += pending.delay
        state.cursor = pending.end_cursor
        now = self.sim.now
        if state.remaining == 0:
            state.status = "done"
            state.finished_ms = now
            state.digest = state.plane.digest()
            spec = state.spec
            self.trace.record_event(
                "job_done",
                now,
                job=spec.name,
                subnets=spec.subnets,
                wait_ms=(state.started_ms or now) - spec.submit_ms,
                span_ms=now - spec.submit_ms,
                segments=len(state.segments),
            )
        else:
            state.status = "boundary"
        self._request_plan()

    # ------------------------------------------------------------------
    # fleet faults (revocation path)
    # ------------------------------------------------------------------
    def inject_fleet_faults(
        self,
        schedule: FaultSchedule,
        slots: Optional[Sequence[int]] = None,
    ) -> None:
        """Arm a fleet-scoped fault schedule against this service run
        (:meth:`ClusterManager.arm_fleet_faults` strikes; engine-scoped
        kinds belong in :class:`~repro.ft.injector.FaultInjector`).
        ``slots`` optionally restricts which physical slots this
        scheduler reacts to — the fleet-chaos harness routes one storm
        across co-located planes (training vs serving) sharing a manager.
        """
        if self._ran:
            raise ServiceError("scheduler already ran; build a fresh one")
        self.manager.arm_fleet_faults(
            self.sim,
            schedule,
            self.slots_per_node,
            slots,
            on_revoked=self._on_lease_revoked,
            on_slot_up=lambda slot: self._request_plan(),
            on_struck=self._on_fleet_struck,
        )

    def _on_lease_revoked(self, lease, slot: int, event: FaultEvent) -> None:
        now = self.sim.now
        self.trace.record_event(
            "lease_revoke",
            now,
            job=lease.job,
            lease=lease.lease_id,
            slot=slot,
            fault=event.kind,
        )
        state = self._jobs.get(lease.job)
        # an elastic job needs nothing here: the in-flight segment drains
        # to its cut, the deferred release is idempotent, and the next
        # plan pass reshapes the job onto the shrunken fleet
        if state is not None and not state.preemptible:
            self._abort_rigid(state, lease, event.kind, now)

    def _on_fleet_struck(self, event: FaultEvent) -> None:
        self.fleet_faults += 1
        self._request_plan()

    def _abort_rigid(
        self, state: _JobState, lease, kind: str, now: float
    ) -> None:
        """A rigid job has no mid-stream cut: discard the in-flight
        segment, restart from subnet 0 after backoff — or fail the job
        once its restart budget is spent."""
        spec = state.spec
        pending = state.pending
        if pending is not None:
            pending.handle.cancel()
            state.lost_virtual_ms += max(0.0, now - pending.start_ms)
            state.pending = None
        lease.release()  # idempotent: frees the revoked lease's residual
        state.losses.clear()
        state.cursor = 0
        state.restarts += 1
        # restart-from-scratch: fresh weights and plane (a rigid job
        # checkpoints nothing mid-stream)
        state.supernet, state.plane = fresh_plane(
            state.space, spec.seed, spec.functional_batch, memo=self.memo
        )
        if state.restarts > self.max_restarts:
            state.status = "failed"
            state.finished_ms = now
            state.failure = failure_summary(
                spec.name,
                attempts=state.restarts,
                max_restarts=self.max_restarts,
                lost_virtual_ms=state.lost_virtual_ms,
                fault=kind,
            )
            self.trace.record_event(
                "job_failed",
                now,
                job=spec.name,
                restarts=state.restarts,
                lost_ms=state.lost_virtual_ms,
                fault=kind,
            )
            return
        backoff = self.requeue_backoff_ms * (2 ** (state.restarts - 1))
        state.status = "queued"
        state.not_before = now + backoff
        self.trace.record_event(
            "job_requeue",
            now,
            job=spec.name,
            cut=0,
            restarts=state.restarts,
            backoff_ms=backoff,
            fault=kind,
        )
        self.sim.schedule(
            state.not_before,
            self._request_plan,
            label=f"requeue {spec.name}",
        )

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run(self) -> Dict:
        """Run every submitted job to completion; returns the report."""
        if not self._jobs:
            raise ServiceError("no jobs submitted")
        self._ran = True
        # co-tenant deployments share the manager across planes that run
        # sequentially; each plane's run (re-)installs its own clock so
        # the usage ledger meters holdings on the clock they live on
        self.manager.clock = self.sim.clock
        self.sim.run()
        if self.telemetry is not None:
            self.telemetry.finalize(self.sim.now)
        unfinished = sorted(
            name
            for name, s in self._jobs.items()
            if s.status not in ("done", "failed")
        )
        if unfinished:
            raise ServiceError(
                f"service quiesced with unfinished jobs: {unfinished}"
            )
        return self.report()

    def report(self) -> Dict:
        """Deterministic machine-readable outcome of the whole service
        run (canonical content; serialise with
        :func:`service_report_json`)."""
        makespan = max(
            (
                s.finished_ms
                for s in self._jobs.values()
                if s.finished_ms is not None
            ),
            default=0.0,
        )
        jobs = []
        for state in sorted(self._jobs.values(), key=lambda s: s.index):
            spec = state.spec
            jobs.append(
                {
                    "name": spec.name,
                    "space": state.space.name,
                    "system": spec.system,
                    "sync": state.config.sync,
                    "priority": spec.priority,
                    "subnets": spec.subnets,
                    "elastic": state.preemptible,
                    "status": state.status,
                    "submitted_ms": spec.submit_ms,
                    "started_ms": state.started_ms,
                    "finished_ms": state.finished_ms,
                    "wait_ms": (
                        state.started_ms - spec.submit_ms
                        if state.started_ms is not None
                        else None
                    ),
                    "span_ms": (
                        state.finished_ms - spec.submit_ms
                        if state.finished_ms is not None
                        else None
                    ),
                    "gpu_ms": state.gpu_ms,
                    "overhead_ms": state.overhead_ms,
                    "segments": [
                        {
                            "start_ms": seg.start_ms,
                            "end_ms": seg.end_ms,
                            "gpus": seg.gpus,
                            "slots": list(seg.slots),
                            "from": seg.cursor_from,
                            "to": seg.cursor_to,
                            "makespan_ms": seg.makespan_ms,
                        }
                        for seg in state.segments
                    ],
                    "resizes": state.resizes,
                    "preemptions": state.preemptions,
                    "restarts": state.restarts,
                    "lost_virtual_ms": state.lost_virtual_ms,
                    "failure": state.failure,
                    "digest": state.digest,
                    "losses": {
                        str(sid): state.losses[sid]
                        for sid in sorted(state.losses)
                    },
                }
            )
        busy = sum(s.gpu_ms for s in self._jobs.values())
        return {
            "schema": 1,
            "total_gpus": self.manager.total_gpus,
            "quantum": self.quantum,
            "resize_cost_ms": self.resize_cost_ms,
            "makespan_ms": makespan,
            "gpu_utilization": (
                busy / (self.manager.total_gpus * makespan) if makespan else 0.0
            ),
            "leases_granted": self.manager.total_leases_granted,
            "revocations": self.manager.total_revocations,
            "fleet_faults": self.fleet_faults,
            "failed_jobs": sum(
                1 for s in self._jobs.values() if s.status == "failed"
            ),
            "events": len(self.trace.events),
            "jobs": jobs,
        }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceConfig:
    """A ``serve`` config: the fleet, its scheduler and the jobs, each
    read by :meth:`JobSpec.from_payload`."""

    jobs: list
    total_gpus: int = at_least(1, default=8)
    gpu_speed_factors: Optional[List[float]] = None
    verify_solo: bool = False
    #: a fleet fault schedule, each event read as a :class:`FaultEvent`
    faults: Optional[list] = None
    scheduler: SchedulerKnobs = field(default_factory=SchedulerKnobs)

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ServiceConfigError('needs a non-empty "jobs" list')


def solo_verdict(
    spec: JobSpec, job: Mapping, fleet_gpus: int, memo: Optional[JobMemo] = None
) -> Dict:
    """Re-run ``spec`` alone and compare it bitwise with its report row.

    The solo GPU count: a rigid job ran one segment at a fixed size, so
    its baseline is that allocation; an elastic (CSP) job's digest is
    allocation-independent, so it runs at its cap — ``min(max_gpus,
    fleet, num_blocks)``.  ``memo.solo`` memoises baselines across calls
    (the fleet sweep checks the same jobs under every storm), and the
    solo run starts from the job's seeded inputs in ``memo``.  A job
    that exhausted its restart budget has no final weights: every
    verdict key is None.
    """
    if job["status"] == "failed":
        return dict.fromkeys(
            ("solo_gpus", "solo_digest", "digest_matches_solo", "losses_match_solo")
        )
    space, config = spec.resolve()
    solo_gpus = (
        job["segments"][0]["gpus"]
        if not job["elastic"]
        else min(spec.max_gpus, fleet_gpus, space.num_blocks)
    )
    memo = JobMemo() if memo is None else memo
    key = (compact(asdict(spec)), solo_gpus)
    if key not in memo.solo:
        solo = run_uninterrupted(
            space,
            config,
            num_gpus=solo_gpus,
            steps=spec.subnets,
            seed=spec.seed,
            batch=spec.batch,
            functional_batch=spec.functional_batch,
            stream_kind=spec.stream_kind,
            memo=memo,
        )
        memo.solo[key] = (solo.digest, solo.losses)
    digest, losses = memo.solo[key]
    violations = same_training({"digest": digest, "losses": losses}, job)
    return {
        "solo_gpus": solo_gpus,
        "solo_digest": digest,
        "digest_matches_solo": not diverged(violations, "digest"),
        "losses_match_solo": not diverged(violations, "losses"),
    }


def run_service(
    payload: Mapping,
    verify_solo: Optional[bool] = None,
    telemetry=None,
) -> Dict:
    """Run one ``serve`` config (see ``examples/serve_demo.json``).

    ``verify_solo`` (or ``"verify_solo": true`` in the payload) re-runs
    every job *alone* — elastic (CSP) jobs at their capped maximum GPU
    count, rigid jobs at the exact allocation the service gave them —
    and records whether digest and per-subnet losses match bitwise.  The
    report's ``"ok"`` is False on any mismatch, and ``naspipe serve``
    then exits non-zero.
    """
    config = build(ServiceConfig, payload, "service config")
    verify_solo = config.verify_solo if verify_solo is None else verify_solo
    speeds = config.gpu_speed_factors
    manager = ClusterManager(
        ClusterSpec(
            num_gpus=config.total_gpus,
            gpu_speed_factors=tuple(speeds) if speeds else None,
        )
    )
    scheduler = JobScheduler(manager, telemetry=telemetry, **vars(config.scheduler))
    specs = [
        JobSpec.from_payload(entry, f"jobs[{index}]")
        for index, entry in enumerate(config.jobs)
    ]
    for spec in specs:
        scheduler.submit(spec)
    if config.faults:
        scheduler.inject_fleet_faults(
            FaultSchedule.from_payload(config.faults)
        )
    report = scheduler.run()
    report["verified"] = verify_solo
    if verify_solo:
        for spec, job in zip(specs, report["jobs"]):
            job.update(solo_verdict(spec, job, manager.total_gpus, scheduler.memo))
    report["ok"] = not verify_solo or all(
        job["digest_matches_solo"] and job["losses_match_solo"]
        for job in report["jobs"]
        if job["status"] != "failed"
    )
    return report


def service_report_json(report: Mapping) -> str:
    """Canonical byte-deterministic serialisation of a service report."""
    return indented(report) + "\n"


def format_service_report(report: Mapping) -> str:
    """Human-readable service summary: per-job table plus timeline."""
    lines = [
        f"service: {report['total_gpus']} GPUs, quantum "
        f"{report['quantum']} subnets, {len(report['jobs'])} job(s), "
        f"makespan {report['makespan_ms']:.1f} ms, "
        f"fleet utilization {report['gpu_utilization']:.1%}",
        "",
        f"{'job':<12s} {'prio':>4s} {'subnets':>7s} {'segs':>4s} "
        f"{'resizes':>7s} {'preempt':>7s} {'wait ms':>9s} {'span ms':>10s} "
        f"{'digest':<18s} {'solo':<5s}",
    ]
    for job in report["jobs"]:
        digest = (job["digest"] or "")[:16] + "…" if job["digest"] else "N/A"
        solo = "-"
        if report.get("verified") and job.get("status") != "failed":
            solo = (
                "OK"
                if job["digest_matches_solo"] and job["losses_match_solo"]
                else "FAIL"
            )
        wait = f"{job['wait_ms']:>9.1f}" if job["wait_ms"] is not None else f"{'-':>9s}"
        span = f"{job['span_ms']:>10.1f}" if job["span_ms"] is not None else f"{'-':>10s}"
        lines.append(
            f"{job['name']:<12s} {job['priority']:>4d} {job['subnets']:>7d} "
            f"{len(job['segments']):>4d} {job['resizes']:>7d} "
            f"{job['preemptions']:>7d} {wait} "
            f"{span} {digest:<18s} {solo:<5s}"
        )
    lines.append("")
    lines.append("timeline (segments as [from,to) subnet ranges):")
    segments = []
    for job in report["jobs"]:
        for seg in job["segments"]:
            segments.append((seg["start_ms"], job["name"], seg))
    for start, name, seg in sorted(segments, key=lambda s: (s[0], s[1])):
        slots = ",".join(str(s) for s in seg["slots"])
        lines.append(
            f"  t={start:9.1f}ms  {name:<12s} [{seg['from']:>3d},{seg['to']:>3d}) "
            f"on {seg['gpus']} GPU(s) {{{slots}}}  ({seg['makespan_ms']:.1f} ms)"
        )
    if report.get("revocations"):
        lines.append("")
        lines.append(
            f"fleet faults: {report['fleet_faults']} event(s), "
            f"{report['revocations']} lease revocation(s), "
            f"{report['failed_jobs']} job(s) failed"
        )
    failed = [job for job in report["jobs"] if job.get("status") == "failed"]
    if failed:
        lines.append("")
        lines.append("failed jobs (restart budget exhausted):")
        for job in failed:
            failure = job["failure"] or {}
            lines.append(
                f"  {job['name']:<12s} {failure.get('attempts', '?')} attempts "
                f"(budget {failure.get('max_restarts', '?')}), "
                f"{failure.get('lost_virtual_ms', 0.0):.1f} ms virtual work "
                f"lost, last fault {failure.get('fault', '?')}"
            )
    if report.get("verified"):
        lines.append("")
        lines.append(
            "tenant isolation: every job's digest "
            + (
                "matches its solo run bitwise"
                if report["ok"]
                else "DIVERGED from its solo run"
            )
        )
    return "\n".join(lines)
