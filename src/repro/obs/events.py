"""The trace event schema registry — one entry per emitted event kind.

This module is the machine-readable contract behind ``docs/TRACING.md``:
every :class:`~repro.sim.trace.TraceEvent` an instrumented run emits must
match a schema here (kind known, stage/subnet scoping respected, attrs
exactly the declared fields with the declared types).  The exporter and
the golden-file tests both validate against it, so a new emission site
cannot silently invent an undocumented event shape.

Conventions shared by all events:

* ``time`` — virtual milliseconds on the simulation clock;
* ``stage`` — pipeline stage / GPU index, ``-1`` for run-global events;
* ``subnet_id`` — sequence ID of the subnet involved, ``-1`` when the
  event is not tied to one subnet;
* byte quantities are plain bytes, durations are virtual ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Tuple

from repro.sim.trace import ExecutionTrace

__all__ = [
    "EventField",
    "EventSchema",
    "EVENT_SCHEMAS",
    "validate_trace",
]

_NUMBER = (int, float)
_BOOL = (bool,)
_INT = (int,)
_STR = (str,)
_TIME_CLASSES = frozenset(_NUMBER)
_name = itemgetter(0)


@dataclass(frozen=True)
class EventField:
    """One attr of an event kind: name, accepted types, meaning."""

    name: str
    types: Tuple[type, ...]
    doc: str


@dataclass(frozen=True)
class EventSchema:
    """Contract for one event kind."""

    kind: str
    emitter: str  # module that records it
    doc: str
    fields: Tuple[EventField, ...] = ()
    stage_scoped: bool = True  # stage must be >= 0
    subnet_scoped: bool = False  # subnet_id must be >= 0

    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)


def _schema(
    kind: str,
    emitter: str,
    doc: str,
    *fields: EventField,
    stage_scoped: bool = True,
    subnet_scoped: bool = False,
) -> EventSchema:
    return EventSchema(kind, emitter, doc, tuple(fields), stage_scoped, subnet_scoped)


#: Every event kind an instrumented run may emit.  ``docs/TRACING.md``
#: documents the same registry in prose; a test asserts the two agree.
EVENT_SCHEMAS: Dict[str, EventSchema] = {
    schema.kind: schema
    for schema in (
        _schema(
            "task_dispatch",
            "repro.engines.pipeline",
            "A fwd/bwd task was dispatched to a stage's GPU; start may "
            "exceed the event time by migration/swap-in stall time.",
            EventField("direction", _STR, '"fwd" or "bwd"'),
            EventField("start", _NUMBER, "compute start (virtual ms)"),
            EventField("end", _NUMBER, "compute end (virtual ms)"),
            subnet_scoped=True,
        ),
        _schema(
            "task_done",
            "repro.engines.pipeline",
            "A dispatched task's compute completed; the stage is free.",
            EventField("direction", _STR, '"fwd" or "bwd"'),
            subnet_scoped=True,
        ),
        _schema(
            "csp_wait_begin",
            "repro.engines.policies.csp",
            "The stage has queued forwards but none is CSP-clear; the "
            "blocking (subnet, layer) edge names the unreleased "
            "dependency stalling the queue head (Definition 2 at work).",
            EventField("blocking_subnet", _INT, "earlier subnet holding the layer"),
            EventField("block", _INT, "choice-block index of the blocking layer"),
            EventField("choice", _INT, "candidate index of the blocking layer"),
            subnet_scoped=True,
        ),
        _schema(
            "csp_wait_end",
            "repro.engines.policies.csp",
            "A forward became schedulable at a stage with an open CSP "
            "wait; subnet_id is the subnet actually selected.",
            EventField("waited_ms", _NUMBER, "wait window length (virtual ms)"),
            subnet_scoped=True,
        ),
        _schema(
            "ready_set",
            "repro.engines.policies.csp",
            "Counter: size of the stage's CSP readiness index after a "
            "scheduling decision (index mode only; samples dedup to "
            "changes).",
            EventField("size", _INT, "ready subnet count"),
        ),
        _schema(
            "queue_depth",
            "repro.core.runtime",
            "Counter: stage queue depths after any queue mutation.",
            EventField("fwd", _INT, "forward queue (L_q) length"),
            EventField("bwd", _INT, "backward-ready list length"),
        ),
        _schema(
            "prefetch_issue",
            "repro.core.context_manager",
            "An async parameter copy was enqueued on the stage's copy "
            "engine (predictor prefetch or demand miss).",
            EventField("block", _INT, "choice-block index"),
            EventField("choice", _INT, "candidate index"),
            EventField("nbytes", _INT, "parameter bytes copied"),
            EventField("demand", _BOOL, "True when a task miss issued it"),
            EventField("land", _NUMBER, "completion time (virtual ms)"),
        ),
        _schema(
            "prefetch_land",
            "repro.core.context_manager",
            "The copy issued by the matching prefetch_issue completed; "
            "timestamped at landing time.",
            EventField("block", _INT, "choice-block index"),
            EventField("choice", _INT, "candidate index"),
            EventField("nbytes", _INT, "parameter bytes copied"),
            EventField("demand", _BOOL, "True when a task miss issued it"),
        ),
        _schema(
            "eviction",
            "repro.core.context_manager",
            "A layer left the stage's parameter cache (LRU pressure, "
            "Algorithm 1's explicit EVICT call, or OOM reclaim); dirty "
            "entries pay a write-back copy.",
            EventField("block", _INT, "choice-block index"),
            EventField("choice", _INT, "candidate index"),
            EventField("nbytes", _INT, "parameter bytes freed"),
            EventField("dirty", _BOOL, "True when written back to CPU"),
            EventField("reason", _STR, '"lru", "evict" or "reclaim"'),
        ),
        _schema(
            "cache_access",
            "repro.core.context_manager",
            "Counter: per-task residency check outcome (Table 2's "
            "cache-hit metric accumulates these).",
            EventField("hits", _INT, "layers found resident"),
            EventField("misses", _INT, "layers absent or still in flight"),
        ),
        _schema(
            "fetch_stall",
            "repro.engines.pipeline",
            "A task's layers were not resident at dispatch; the GPU "
            "idles until the copy lands (recorded as a stall interval "
            "too).",
            EventField("wait_ms", _NUMBER, "synchronous stall length"),
            EventField("misses", _INT, "missing layer count"),
            subnet_scoped=True,
        ),
        _schema(
            "migration",
            "repro.engines.pipeline",
            "On-demand operator migration (mirror_mode=migrate): layer "
            "parameters moved between stages on the critical path "
            "(paper §2.3's rejected design).",
            EventField("delay_ms", _NUMBER, "synchronous migration cost"),
        ),
        _schema(
            "oom_retry",
            "repro.engines.pipeline",
            "Simulated CUDA OOM at task start: cache reclaimed, task "
            "re-executed after a fixed penalty (paper §4.2).",
            EventField("penalty_ms", _NUMBER, "retry penalty"),
            EventField("retry_at", _NUMBER, "re-dispatch time (virtual ms)"),
            subnet_scoped=True,
        ),
        _schema(
            "nic_transfer",
            "repro.engines.pipeline",
            "An activation (fwd) or gradient (bwd) boundary tensor was "
            "enqueued on an inter-stage link; arrive includes queueing "
            "and latency.",
            EventField("src", _INT, "sending stage"),
            EventField("dst", _INT, "receiving stage"),
            EventField("nbytes", _INT, "boundary tensor bytes"),
            EventField("arrive", _NUMBER, "delivery time (virtual ms)"),
            EventField("direction", _STR, '"fwd" or "bwd"'),
            subnet_scoped=True,
        ),
        _schema(
            "subnet_inject",
            "repro.engines.pipeline",
            "A subnet descriptor was retrieved from the stream and "
            "admitted into the pipeline.",
            stage_scoped=False,
            subnet_scoped=True,
        ),
        _schema(
            "subnet_complete",
            "repro.sim.trace",
            "The subnet's final backward committed at stage 0; the "
            "subnet left the pipeline.",
            stage_scoped=False,
            subnet_scoped=True,
        ),
        _schema(
            "bulk_flush",
            "repro.engines.policies.bsp",
            "BSP barrier: every subnet of the current bulk drained and "
            "its buffered updates flushed in sequence-ID order.",
            EventField("bulk", _INT, "subnets flushed"),
            EventField("flush_index", _INT, "1-based flush ordinal"),
            stage_scoped=False,
        ),
        _schema(
            "staleness_hold",
            "repro.engines.policies.asp",
            "SSP gate: the queue head exceeds the staleness bound over "
            "the oldest unfinished subnet (one event per distinct hold).",
            EventField("oldest_unfinished", _INT, "current lag reference"),
            EventField("staleness", _INT, "configured bound"),
            subnet_scoped=True,
        ),
        _schema(
            "run_meta",
            "repro.engines.pipeline",
            "Run-global configuration snapshot emitted once at engine "
            "construction: the static facts critical-path analysis and "
            "what-if projection need that no later event carries, so a "
            "bare trace is self-describing.",
            EventField("system", _STR, "system configuration name"),
            EventField("num_stages", _INT, "pipeline depth"),
            EventField("batch", _INT, "training batch size"),
            EventField("window", _INT, "policy in-flight subnet window"),
            EventField("sync", _STR, '"csp", "bsp", "asp" or "ssp"'),
            stage_scoped=False,
        ),
        _schema(
            "link_meta",
            "repro.engines.pipeline",
            "Per-link parameters emitted once at engine construction "
            "(one event per direction per adjacent-stage pair); the "
            "what-if NIC model replays FIFO queueing from these.",
            EventField("src", _INT, "sending stage"),
            EventField("dst", _INT, "receiving stage"),
            EventField(
                "bandwidth", _NUMBER, "link bandwidth (bytes per virtual ms)"
            ),
            EventField("latency", _NUMBER, "per-transfer latency (virtual ms)"),
            stage_scoped=False,
        ),
        _schema(
            "sim_quiescent",
            "repro.sim.engine",
            "The discrete-event queue drained; the schedule is complete.",
            EventField("events_processed", _INT, "cumulative sim events"),
            stage_scoped=False,
        ),
        # -- fault tolerance (repro.ft) --------------------------------
        _schema(
            "fault_inject",
            "repro.ft.injector",
            "A scheduled fault fired on the simulation clock; the "
            "kind-specific effect (crash, link degrade, copy stall, "
            "transient arm) follows immediately.",
            EventField("fault", _STR, "fault kind (see repro.ft.faults)"),
            EventField("target", _INT, "stage / host / link index"),
            EventField("duration_ms", _NUMBER, "effect window (0 = point)"),
            EventField("magnitude", _NUMBER, "kind-specific severity"),
            stage_scoped=False,
        ),
        _schema(
            "gpu_down",
            "repro.engines.pipeline",
            "Fail-stop: the stage's GPU (or its whole host) died; "
            "in-flight work on it vanished and the run is interrupted.",
            EventField("cause", _STR, '"gpu_crash" or "host_crash"'),
            EventField("down_ms", _NUMBER, "declared outage length"),
        ),
        _schema(
            "gpu_up",
            "repro.ft.recovery",
            "A recovered attempt brought this stage online (possibly on "
            "a different GPU count than the crashed attempt).",
            EventField("attempt", _INT, "1-based attempt number"),
        ),
        _schema(
            "checkpoint_begin",
            "repro.ft.checkpoint",
            "The completion frontier reached an open cut; the consistent "
            "snapshot (store overlaid with the cut's undo log) starts "
            "serialising.",
            EventField("cut", _INT, "cut point (next subnet ID to train)"),
            stage_scoped=False,
        ),
        _schema(
            "checkpoint_commit",
            "repro.ft.checkpoint",
            "The cut's parameters, optimizer velocity and RNG state are "
            "durable on disk; recovery may resume from here.",
            EventField("cut", _INT, "cut point (next subnet ID to train)"),
            EventField("layers", _INT, "materialised layers captured"),
            EventField("nbytes", _INT, "serialised array bytes"),
            stage_scoped=False,
        ),
        _schema(
            "recovery_begin",
            "repro.ft.recovery",
            "A restarted attempt begins: state restored from the latest "
            "consistent cut, stream resumed at the cut with original "
            "sequence IDs.",
            EventField("cut", _INT, "resume point"),
            EventField("attempt", _INT, "1-based attempt number"),
            EventField("gpus", _INT, "GPU count of this attempt"),
            stage_scoped=False,
        ),
        _schema(
            "recovery_done",
            "repro.ft.recovery",
            "The restarted attempt is ready to dispatch: restart "
            "downtime charged, prefetch caches re-warmed.",
            EventField("cut", _INT, "resume point"),
            EventField("attempt", _INT, "1-based attempt number"),
            EventField("latency_ms", _NUMBER, "downtime + re-warm cost"),
            EventField("rewarmed", _INT, "layers prefetched before resume"),
            stage_scoped=False,
        ),
        _schema(
            "task_retry",
            "repro.engines.pipeline",
            "A transient task error (repro.ft fault injection) failed "
            "this dispatch; the stage stalls for an exponential backoff "
            "and retries.",
            EventField("attempt", _INT, "consecutive failures at the stage"),
            EventField("delay_ms", _NUMBER, "backoff before the retry"),
            EventField("direction", _STR, '"fwd" or "bwd"'),
            subnet_scoped=True,
        ),
        # -- graceful degradation (repro.ft.degradation) ---------------
        _schema(
            "health_report",
            "repro.ft.degradation",
            "The health monitor's EWMA estimate for a stage, link or "
            "copy engine crossed a hysteresis threshold; one event per "
            "status transition.",
            EventField("scope", _STR, '"stage", "link" or "copy"'),
            EventField("index", _INT, "stage / link index within the scope"),
            EventField(
                "status",
                _STR,
                '"healthy"/"straggler" (stage), "nominal"/"degraded" '
                '(link), "nominal"/"stalled" (copy)',
            ),
            EventField("metric", _NUMBER, "EWMA value at the transition"),
            EventField("reference", _NUMBER, "nominal value of the metric"),
            stage_scoped=False,
        ),
        _schema(
            "mitigation_apply",
            "repro.ft.degradation",
            "A degradation mitigation was applied or lifted at a safe "
            "decision point; the same entry lands in "
            "PipelineResult.mitigation_actions (and the run manifest).",
            EventField(
                "action",
                _STR,
                '"admission_cap", "prefetch_throttle" or "rebalance"',
            ),
            EventField("target", _INT, "stage index, -1 for run-global"),
            EventField("value", _NUMBER, "cap / flag / weight applied"),
            EventField("active", _BOOL, "True = applied, False = lifted"),
            stage_scoped=False,
        ),
        # -- service plane (repro.service) -----------------------------
        _schema(
            "job_submit",
            "repro.service.scheduler",
            "A job arrived in the service admission queue (its stream "
            "and functional plane are built at this instant).",
            EventField("job", _STR, "tenant job name"),
            EventField("priority", _INT, "fair-share weight (>= 1)"),
            EventField("subnets", _INT, "stream length requested"),
            EventField("min_gpus", _INT, "smallest acceptable allocation"),
            EventField(
                "max_gpus",
                _INT,
                "allocation cap after clamping to fleet size and "
                "choice-block count",
            ),
            stage_scoped=False,
        ),
        _schema(
            "job_start",
            "repro.service.scheduler",
            "A queued job was admitted (or re-admitted after preemption) "
            "and leased GPUs; cut is the stream position it starts from.",
            EventField("job", _STR, "tenant job name"),
            EventField("gpus", _INT, "GPUs granted"),
            EventField("slots", _STR, "comma-joined physical slot ids"),
            EventField("cut", _INT, "stream cursor at admission"),
            stage_scoped=False,
        ),
        _schema(
            "job_resize",
            "repro.service.scheduler",
            "An elastic (CSP) job changed allocation at a segment "
            "boundary — a consistent cut, so its bits are unchanged.",
            EventField("job", _STR, "tenant job name"),
            EventField("gpus_from", _INT, "allocation before the cut"),
            EventField("gpus_to", _INT, "allocation after the cut"),
            EventField("cut", _INT, "stream cursor at the boundary"),
            stage_scoped=False,
        ),
        _schema(
            "job_preempt",
            "repro.service.scheduler",
            "A running job was squeezed to zero GPUs at a segment "
            "boundary by higher-priority tenants and re-queued; it "
            "resumes later from the cut.",
            EventField("job", _STR, "tenant job name"),
            EventField("gpus", _INT, "allocation it gave up"),
            EventField("cut", _INT, "stream cursor it will resume from"),
            stage_scoped=False,
        ),
        _schema(
            "job_done",
            "repro.service.scheduler",
            "The job's last segment drained; its loss digest is final "
            "(and, under CSP, bitwise equal to a solo run).",
            EventField("job", _STR, "tenant job name"),
            EventField("subnets", _INT, "subnets trained"),
            EventField("wait_ms", _NUMBER, "submit-to-first-start wait"),
            EventField("span_ms", _NUMBER, "submit-to-finish span"),
            EventField("segments", _INT, "engine incarnations used"),
            stage_scoped=False,
        ),
        _schema(
            "lease_revoke",
            "repro.service.scheduler",
            "A fleet fault (slot_preempt / node_down) struck a leased "
            "physical slot: the owning lease left the live set "
            "mid-segment with the fault recorded as its provenance.",
            EventField("job", _STR, "tenant holding the revoked lease"),
            EventField("lease", _INT, "revoked lease id"),
            EventField("slot", _INT, "physical fleet slot struck"),
            EventField("fault", _STR, '"slot_preempt" or "node_down"'),
            stage_scoped=False,
        ),
        _schema(
            "job_requeue",
            "repro.service.scheduler",
            "A rigid job's segment was aborted by a lease revocation "
            "(no mid-stream cut to drain to); it re-queues with "
            "exponential backoff to restart from subnet 0.",
            EventField("job", _STR, "tenant job name"),
            EventField("cut", _INT, "stream cursor it restarts from (0)"),
            EventField("restarts", _INT, "restarts consumed so far"),
            EventField("backoff_ms", _NUMBER, "requeue backoff applied"),
            EventField("fault", _STR, "fault kind that forced the abort"),
            stage_scoped=False,
        ),
        _schema(
            "job_failed",
            "repro.service.scheduler",
            "A rigid job exhausted its restart budget under fleet "
            "faults; that job fails (structured failure record in the "
            "report) while the fleet keeps running.",
            EventField("job", _STR, "tenant job name"),
            EventField("restarts", _INT, "restarts attempted"),
            EventField("lost_ms", _NUMBER, "virtual work discarded"),
            EventField("fault", _STR, "fault kind of the final abort"),
            stage_scoped=False,
        ),
        # -- serving plane (repro.serving) -----------------------------
        _schema(
            "request_arrive",
            "repro.serving.frontend",
            "An open-loop subnet-evaluation request reached the serving "
            "front-end; subnet_id is the request id.",
            EventField(
                "digest",
                _STR,
                "subnet digest prefix (12 hex chars), the result-cache key",
            ),
            stage_scoped=False,
            subnet_scoped=True,
        ),
        _schema(
            "request_admit",
            "repro.serving.frontend",
            "The request passed admission control and joined the "
            "batching queue.",
            EventField(
                "queue_depth", _INT, "in-system backlog after the admit"
            ),
            stage_scoped=False,
            subnet_scoped=True,
        ),
        _schema(
            "request_shed",
            "repro.serving.frontend",
            "The in-system backlog was at queue_bound; the request was "
            "rejected immediately (deterministic load shedding).",
            EventField(
                "queue_depth", _INT, "in-system backlog at the rejection"
            ),
            stage_scoped=False,
            subnet_scoped=True,
        ),
        _schema(
            "batch_form",
            "repro.serving.frontend",
            "A scoring batch was emitted by the bounded batcher (full, "
            "linger expiry, or end-of-workload drain).",
            EventField("batch", _INT, "0-based batch ordinal"),
            EventField("size", _INT, "requests in the batch"),
            EventField(
                "cause",
                _STR,
                '"full" (hit max_batch), "linger" (oldest member waited '
                'max_linger_ms) or "drain" (end of workload)',
            ),
            EventField(
                "oldest_wait_ms", _NUMBER, "oldest member's queueing time"
            ),
            stage_scoped=False,
        ),
        _schema(
            "cache_hit",
            "repro.serving.frontend",
            "The request's subnet digest was resident in the result "
            "cache; it completes without touching the fleet.",
            EventField("tier", _STR, 'cache tier ("result")'),
            stage_scoped=False,
            subnet_scoped=True,
        ),
        _schema(
            "cache_miss",
            "repro.serving.frontend",
            "The request's subnet digest was absent from the result "
            "cache; it proceeds to admission and batching.",
            EventField("tier", _STR, 'cache tier ("result")'),
            stage_scoped=False,
            subnet_scoped=True,
        ),
        _schema(
            "request_retry",
            "repro.serving.frontend",
            "The request's in-flight batch was dissolved by a lease "
            "revocation; it re-queued at the batcher's front for a "
            "deterministic retry (shed instead if queue_bound was hit).",
            EventField("retries", _INT, "retries this request has taken"),
            EventField("batch", _INT, "ordinal of the dissolved batch"),
            stage_scoped=False,
            subnet_scoped=True,
        ),
        _schema(
            "rebalance",
            "repro.ft.degradation",
            "A straggler stage's partition weight changed; from the next "
            "subnet injection, balanced partitions shift layer "
            "boundaries away from the stage (replicas materialise via "
            "the mirror registry).",
            EventField("weight", _NUMBER, "cost weight (1.0 = nominal)"),
        ),
    )
}


def _problems(
    kind: str,
    time: float,
    stage: int,
    subnet_id: int,
    attrs: Tuple[Tuple[str, object], ...],
) -> List[str]:
    """Every problem of the event with these five fields, in a fixed
    order (empty = valid)."""
    schema = EVENT_SCHEMAS.get(kind)
    if schema is None:
        return [f"unknown event kind {kind!r}"]
    problems: List[str] = []
    if (
        isinstance(time, bool)
        or not isinstance(time, _NUMBER)
        or not math.isfinite(time)
    ):
        problems.append(f"{kind}: time must be a finite number, got {time!r}")
    if schema.stage_scoped and stage < 0:
        problems.append(f"{kind}: stage must be >= 0, got {stage}")
    if not schema.stage_scoped and stage != -1:
        problems.append(f"{kind}: run-global event carries stage {stage}")
    if schema.subnet_scoped and subnet_id < 0:
        problems.append(f"{kind}: subnet_id must be >= 0, got {subnet_id}")
    values = dict(attrs)
    declared = schema.field_names()
    missing = [name for name in declared if name not in values]
    extra = [name for name in values if name not in declared]
    if missing:
        problems.append(f"{kind}: missing attrs {missing}")
    if extra:
        problems.append(f"{kind}: undeclared attrs {extra}")
    for spec in schema.fields:
        if spec.name not in values:
            continue
        value = values[spec.name]
        # bool is an int subclass; only accept it where declared.
        if isinstance(value, bool) and bool not in spec.types:
            problems.append(f"{kind}.{spec.name}: bool where {spec.types} expected")
        elif not isinstance(value, spec.types):
            problems.append(
                f"{kind}.{spec.name}: {type(value).__name__} "
                f"where {spec.types} expected"
            )
    return problems


def _shape(schema: EventSchema, keys: Tuple[str, ...]):
    """How a row of ``schema``'s kind whose attrs carry ``keys`` is
    checked: its scoping and, per key in order, the declared classes —
    or None unless ``keys`` names every declared field exactly once."""
    declared = {spec.name: frozenset(spec.types) for spec in schema.fields}
    if len(keys) != len(declared) or set(keys) != declared.keys():
        return None
    classes = tuple(declared[key] for key in keys)
    return schema.stage_scoped, schema.subnet_scoped, classes


def _passes(shape, time, stage, subnet_id, attrs) -> bool:
    """True when the row's time is a finite ``int`` or ``float``, its
    scoping holds and each value's class is one its field declares (so a
    bool passes only where declared) — then :func:`_problems` finds
    nothing.  False sends the row to :func:`_problems`, which also
    accepts subclasses such as ``numpy.float64``."""
    stage_scoped, subnet_scoped, classes = shape
    if time.__class__ not in _TIME_CLASSES or not math.isfinite(time):
        return False
    if (stage < 0) if stage_scoped else (stage != -1):
        return False
    if subnet_scoped and subnet_id < 0:
        return False
    for (_, value), exact in zip(attrs, classes):
        if value.__class__ not in exact:
            return False
    return True


def validate_trace(trace: ExecutionTrace) -> List[str]:
    """Schema-check every event of a trace (empty list = all valid).

    Reads the event columns and builds no row object.  Each (kind, attr
    keys) pair is resolved to its checks once per call; a row that
    passes them adds nothing, and any other row gets the problem list
    :func:`_problems` gives it."""
    shapes: Dict[str, dict] = {kind: {} for kind in EVENT_SCHEMAS}
    problems: List[str] = []
    for kind, time, stage, subnet_id, attrs in trace.events.rows():
        by_keys = shapes.get(kind)
        if by_keys is not None:
            keys = tuple(map(_name, attrs))
            if keys not in by_keys:
                by_keys[keys] = _shape(EVENT_SCHEMAS[kind], keys)
            shape = by_keys[keys]
            if shape is not None and _passes(shape, time, stage, subnet_id, attrs):
                continue
        problems.extend(_problems(kind, time, stage, subnet_id, attrs))
    return problems
