"""The serving engine: leased GPUs, batched scoring, per-request timing.

A :class:`ServingEngine` is one serving *tenant*: it leases
``num_gpus`` from a :class:`~repro.service.manager.ClusterManager`
(so it can co-run beside training jobs on the same fleet), materialises
the lease into a fresh simulated cluster, and drives an open-loop
request stream through admission → batching → pipelined forward-only
scoring, recording arrival / admit / batch / score / done timestamps
per request.

Scoring is forward-only pipeline execution over a **static** partition
(:func:`~repro.partition.static.static_partition_for_space` — serving
has no per-subnet rebalancing; the partition is fixed at deployment):
request *r*'s stage *s* starts when both its stage *s−1* finished and
the stage's GPU is free, stalls until the stage's layer share is
resident (tier-2 cache), then computes the stage's forward time.
Consecutive requests of a batch overlap across stages exactly like
forward microbatches in GPipe.

Everything runs on one discrete-event virtual clock
(:class:`~repro.sim.engine.SimulationEngine`), and every decision —
shed or admit, flush cause, fetch stall — is a pure function of the
seeded workload, so two runs produce byte-identical reports.  The run's
timeline is a schema-validated :class:`~repro.sim.trace.ExecutionTrace`
carrying the six serving event kinds documented in ``docs/TRACING.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.baselines import resolve_target
from repro.errors import ConfigError, ServiceError
from repro.core.context_manager import StageContextManager, stage_cache_bytes
from repro.ft.faults import FaultEvent, FaultSchedule
from repro.nn.parameter_store import LayerId
from repro.partition.static import static_partition_for_space
from repro.payload import build
from repro.serving.batcher import BatchPolicy, BoundedBatcher, FormedBatch
from repro.serving.cache import LayerBlockCache, ResultCache, subnet_digest
from repro.serving.metrics import latency_histogram, latency_stats
from repro.serving.workload import EvalRequest, RequestDraws, WorkloadSpec, path_key
from repro.service.manager import ClusterManager
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import SimulationEngine
from repro.sim.trace import ExecutionTrace
from repro.supernet.search_space import SearchSpace
from repro.supernet.subnet import Subnet
from repro.supernet.supernet import Supernet

__all__ = ["RequestRecord", "ServingEngine", "ServingInputs", "ServingSpec", "run_bench"]

#: the one serving config key not spelled like its field
_RENAME = (("requests", "num_requests"),)
#: ``cache_hit`` / ``cache_miss`` attrs: a request-level lookup only
#: ever hits or misses the result tier
_RESULT_TIER = (("tier", "result"),)


@lru_cache(maxsize=None, typed=True)
def _queue_depth_attrs(depth: int) -> tuple:
    """``request_admit`` / ``request_shed`` attrs, shared per depth."""
    return (("queue_depth", depth),)


@lru_cache(maxsize=None, typed=True)
def _pair(key: str, value) -> tuple:
    """One shared ``(key, value)`` pair (``batch_form``'s size, cause)."""
    return (key, value)


@dataclass(frozen=True)
class ServingSpec:
    """One serving deployment: fleet share, workload, policy, caches."""

    space: str = "NLP.c3"
    space_overrides: Optional[Dict] = None
    num_gpus: int = 4  # GPUs this tenant leases (= pipeline stages)
    total_gpus: int = 8  # fleet size when we build the manager ourselves
    eval_batch: int = 32  # samples per evaluation request
    slo_ms: float = 250.0
    result_entries: int = 256  # tier-1 digest cache capacity (0 = off)
    cache_subnets: float = 3.0  # tier-2 capacity, in subnet stage-shares
    result_hit_cost_ms: float = 0.05  # lookup cost charged to a tier-1 hit
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    policy: BatchPolicy = field(default_factory=BatchPolicy)
    overload_rate_factor: float = 6.0  # bench: rate multiplier for overload

    def __post_init__(self) -> None:
        if self.eval_batch < 1:
            raise ConfigError(f"eval_batch must be >= 1, got {self.eval_batch}")
        if not 0 < self.slo_ms < math.inf:  # NaN fails both
            raise ConfigError(f"slo_ms must be finite and > 0, got {self.slo_ms}")
        self.policy.validate()

    @staticmethod
    def from_payload(payload: Dict) -> "ServingSpec":
        """Build from one flat ``bench-serving`` config: the spec's own
        fields plus :class:`WorkloadSpec`'s and :class:`BatchPolicy`'s,
        every default the dataclass's."""
        return build(ServingSpec, payload, "serving", rename=_RENAME)


@dataclass
class RequestRecord:
    """The five lifecycle timestamps of one request (plus its fate)."""

    request_id: int
    arrival_ms: float
    outcome: str = "pending"  # "hit" | "completed" | "shed"
    admit_ms: Optional[float] = None
    batch_ms: Optional[float] = None  # batch formation instant
    score_ms: Optional[float] = None  # first compute start on a GPU
    done_ms: Optional[float] = None
    batch_index: Optional[int] = None
    #: times this request's in-flight batch was dissolved by a lease
    #: revocation and the request re-queued (SLO accounting separates
    #: retried requests from fresh ones)
    retries: int = 0

    @property
    def latency_ms(self) -> Optional[float]:
        if self.done_ms is None:
            return None
        return self.done_ms - self.arrival_ms


class _ArchPlan(NamedTuple):
    """What every request for one architecture shares on one deployment."""

    digest: str
    stage_layers: Tuple[Tuple[LayerId, ...], ...]  # static partition's shares
    stage_ms: Tuple[float, ...]  # forward time of each share at eval_batch


def _inputs_key(spec: ServingSpec, space: SearchSpace) -> Tuple:
    """What a :class:`ServingInputs` is valid for: the space, the request
    paths' fields, the stage count (static partition) and ``eval_batch``."""
    return (space, path_key(spec.workload), spec.num_gpus, spec.eval_batch)


class ServingInputs:
    """What every engine of one deployment reads, derived once.

    The request paths are drawn once and the arrival times when the
    arrival process changes (:class:`~repro.serving.workload.
    RequestDraws`); an architecture's plan — digest, stage shares,
    per-stage forward ms — is built once, the first time any engine asks
    for it.  A bench's three
    scenarios, or a fleet sweep's serving co-tenants, share one source.
    What it hands out is frozen (requests, subnets, tuple plans) or an
    idempotent memo (the supernet's profiles), so no engine can change
    what another reads.  A source is passed, never global: it lives as
    long as the call that built it.
    """

    def __init__(self, spec: ServingSpec, space: Optional[SearchSpace] = None) -> None:
        if space is None:
            space, _system = resolve_target(
                spec.space, spec.space_overrides, path="serving"
            )
        self.key = _inputs_key(spec, space)
        self.space = space
        self.supernet = Supernet(space)
        self.eval_batch = spec.eval_batch
        self.partition = static_partition_for_space(self.supernet, spec.num_gpus)
        self.draws = RequestDraws(spec.workload, space)
        #: choice tuple -> plan, per architecture
        self._plans: Dict[Tuple[int, ...], _ArchPlan] = {}
        self._layer_fwd_ms: Dict[LayerId, float] = {}
        #: plan digest -> ``request_arrive`` attrs, one per architecture
        self.arrive_attrs: Dict[str, Tuple[Tuple[str, str]]] = {}

    def plan(self, subnet: Subnet) -> _ArchPlan:
        """The plan of ``subnet``'s architecture, built on first sight."""
        plan = self._plans.get(subnet.choices)
        if plan is None:
            layers = subnet.layer_ids()
            fwd_ms = self._layer_fwd_ms
            for layer in layers:
                if layer not in fwd_ms:
                    fwd_ms[layer] = self.supernet.layer_fwd_ms(layer, self.eval_batch)
            shares = tuple(layers[start:stop] for start, stop in self.partition)
            plan = self._plans[subnet.choices] = _ArchPlan(
                subnet_digest(self.space.name, subnet),
                shares,
                # builtin sum over the same floats in the same order as
                # summing layer_fwd_ms() calls: done_ms is pinned bitwise
                tuple(sum(map(fwd_ms.__getitem__, share)) for share in shares),
            )
            self.arrive_attrs[plan.digest] = (("digest", plan.digest[:12]),)
        return plan


class ServingEngine:
    """Score one seeded workload on leased GPUs; fully deterministic.

    ``inputs`` is the deployment's :class:`ServingInputs`; without one the
    engine derives its own, as a lone run does.
    """

    def __init__(
        self,
        spec: ServingSpec,
        manager: Optional[ClusterManager] = None,
        cache_enabled: bool = True,
        slots_per_node: int = 4,
        telemetry=None,
        inputs: Optional[ServingInputs] = None,
    ) -> None:
        self.spec = spec
        self.space, _system = resolve_target(
            spec.space, spec.space_overrides, path="serving"
        )
        if inputs is None:
            inputs = ServingInputs(spec, self.space)
        elif inputs.key != _inputs_key(spec, self.space):
            raise ValueError(
                "serving inputs derived for another deployment: space, seed, "
                "request-path fields, num_gpus and eval_batch must match the engine's"
            )
        self.inputs = inputs
        self.supernet = inputs.supernet
        self.manager = manager or ClusterManager(
            ClusterSpec(num_gpus=spec.total_gpus)
        )
        self.stages = spec.num_gpus
        self.slots_per_node = slots_per_node
        self.trace = ExecutionTrace(num_gpus=self.stages)
        self.sim = SimulationEngine(trace=self.trace)
        self.cache_enabled = cache_enabled
        self.result_cache = ResultCache(
            spec.result_entries if cache_enabled else 0
        )
        self.batcher = BoundedBatcher(spec.policy)
        self.records: List[RequestRecord] = []
        self._executor_queue: List[FormedBatch] = []
        self._executor_free = 0.0
        self._executor_busy = False
        self._executor_batch: Optional[FormedBatch] = None
        self._executor_handle = None
        self._backlog = 0  # admitted requests formed but not finished
        # fleet-fault bookkeeping
        self._ran = False
        self.revocations = 0
        #: [start, end] spans during which the tenant held no lease
        self.outage_windows: List = []
        self._outage_start: Optional[float] = None
        self._prior_layer_hits = 0
        self._prior_layer_misses = 0
        self._prior_fetch_bytes = 0
        self._prior_peak_resident = 0
        #: the manager meters slot holdings on this plane's virtual clock
        #: (the construction-time acquire below lands at sim.now == 0);
        #: it holds the simulator's, so a finished engine is no cycle
        self.manager.clock = self.sim.clock
        #: optional :class:`~repro.obs.telemetry.TelemetryHub` — pure
        #: observer; attached before the first acquire so metering sees
        #: the construction-time lease
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self.trace, self.sim, self.manager, spec.slo_ms)
        self.lease = None
        self._acquire_data_plane()

    def _acquire_data_plane(self) -> None:
        """Lease GPUs and build the per-lease state: cluster view, stage
        contexts, layer cache.  Called at construction and again after a
        revocation once enough slots are back up — the rebuilt layer
        cache starts **cold** (new devices hold nothing)."""
        self.lease = self.manager.acquire("serving", self.stages)
        self.cluster = self.lease.materialize()
        capacity = stage_cache_bytes(
            self.supernet, self.spec.cache_subnets, self.stages
        )
        contexts = [
            StageContextManager(
                stage,
                self.supernet,
                self.cluster.copy_engines[stage],
                capacity,
                self.trace,
            )
            for stage in range(self.stages)
        ]
        self.layer_cache = LayerBlockCache(contexts, enabled=self.cache_enabled)

    def _retire_layer_cache(self) -> None:
        """Fold the doomed incarnation's cache counters into the prior
        totals so the final report accounts for every copy made."""
        self._prior_layer_hits += self.layer_cache.hits()
        self._prior_layer_misses += self.layer_cache.misses()
        stats = self.layer_cache.stats()
        self._prior_fetch_bytes += stats["fetch_bytes"]
        self._prior_peak_resident = max(
            self._prior_peak_resident, stats["peak_resident_bytes"]
        )

    def layer_cache_hits(self) -> int:
        return self._prior_layer_hits + self.layer_cache.hits()

    def layer_cache_misses(self) -> int:
        return self._prior_layer_misses + self.layer_cache.misses()

    def layer_cache_stats(self) -> Dict:
        stats = dict(self.layer_cache.stats())
        stats["hits"] = self.layer_cache_hits()
        stats["misses"] = self.layer_cache_misses()
        stats["fetch_bytes"] += self._prior_fetch_bytes
        stats["peak_resident_bytes"] = max(
            stats["peak_resident_bytes"], self._prior_peak_resident
        )
        return stats

    # ------------------------------------------------------------------
    # request lifecycle
    # ------------------------------------------------------------------
    def _on_arrival(self, request: EvalRequest) -> None:
        now = self.sim.now
        record = self.records[request.request_id]
        digest = self.inputs.plan(request.subnet).digest
        trace = self.trace
        trace.append_event(
            "request_arrive",
            now,
            -1,
            request.request_id,
            self.inputs.arrive_attrs[digest],
        )
        if self.result_cache.enabled:
            score = self.result_cache.get(digest)
            if score is not None:
                record.outcome = "hit"
                record.done_ms = now + self.spec.result_hit_cost_ms
                trace.append_event("cache_hit", now, -1, request.request_id, _RESULT_TIER)
                if self.telemetry is not None:
                    # the one completion no trace event carries a
                    # latency for — report it to the hub directly
                    self.telemetry.on_serving_complete(
                        record.latency_ms, record.retries
                    )
                return
            trace.append_event("cache_miss", now, -1, request.request_id, _RESULT_TIER)
        admitted = self.batcher.offer(request, now, self._backlog)
        depth = _queue_depth_attrs(self.batcher.depth() + self._backlog)
        if not admitted:
            record.outcome = "shed"
            trace.append_event("request_shed", now, -1, request.request_id, depth)
            return
        record.admit_ms = now
        trace.append_event("request_admit", now, -1, request.request_id, depth)
        batch = self.batcher.flush_full(now)
        if batch is not None:
            self._on_batch(batch)
        else:
            self.sim.schedule(
                now + self.spec.policy.max_linger_ms,
                lambda rid=request.request_id: self._on_linger(rid),
                priority=5,
                label="serving-linger",
            )

    def _on_linger(self, request_id: int) -> None:
        batch = self.batcher.flush_due(self.sim.now, request_id)
        if batch is not None:
            self._on_batch(batch)

    def _on_batch(self, batch: FormedBatch) -> None:
        now = self.sim.now
        self._backlog += len(batch)
        self.trace.append_event(
            "batch_form",
            now,
            -1,
            -1,
            (
                ("batch", batch.index),
                _pair("size", len(batch)),
                _pair("cause", batch.cause),
                ("oldest_wait_ms", batch.oldest_wait_ms),
            ),
        )
        for request in batch.requests:
            record = self.records[request.request_id]
            record.batch_ms = now
            record.batch_index = batch.index
        if self.cache_enabled and self.lease is not None:
            # Warm the stage caches while the executor finishes earlier
            # batches: copies overlap compute on the async copy engines.
            for request in batch.requests:
                self.layer_cache.prefetch(
                    self.inputs.plan(request.subnet).stage_layers, now
                )
        self._executor_queue.append(batch)
        self._maybe_start_executor()

    # ------------------------------------------------------------------
    # batch scoring (forward-only pipeline over the static partition)
    # ------------------------------------------------------------------
    def _maybe_start_executor(self) -> None:
        if self.lease is None:
            return  # revoked: formed batches wait for the re-acquire
        if self._executor_busy or not self._executor_queue:
            return
        batch = self._executor_queue.pop(0)
        start = max(self.sim.now, self._executor_free)
        done = self._score_batch(batch, start)
        self._executor_busy = True
        self._executor_free = done
        self._executor_batch = batch
        self._executor_handle = self.sim.schedule(
            done,
            lambda b=batch: self._on_batch_done(b),
            priority=5,
            label="serving-batch-done",
        )

    def _score_batch(self, batch: FormedBatch, start: float) -> float:
        stage_free = [start] * self.stages
        batch_done = start
        contexts = self.layer_cache.contexts
        for request in batch.requests:
            record = self.records[request.request_id]
            plan = self.inputs.plan(request.subnet)
            prev_done = start
            first_start: Optional[float] = None
            for stage, context in enumerate(contexts):
                layers = plan.stage_layers[stage]
                t0 = max(prev_done, stage_free[stage])
                compute_start = max(
                    t0, context.acquire_for_task(layers, t0).ready_time
                )
                if first_start is None:
                    first_start = compute_start
                end = compute_start + plan.stage_ms[stage]
                # Read-mostly: scoring never updates parameters, so nothing
                # is ever dirty and eviction stays write-back-free.
                context.release_after_task(layers, end, dirty=False)
                stage_free[stage] = end
                prev_done = end
            record.score_ms = first_start
            record.done_ms = prev_done
            record.outcome = "completed"
            batch_done = max(batch_done, prev_done)
        return batch_done

    def _on_batch_done(self, batch: FormedBatch) -> None:
        now = self.sim.now
        self._backlog -= len(batch)
        for request in batch.requests:
            digest = self.inputs.plan(request.subnet).digest
            self.result_cache.put(digest, _score_of(digest))
            if self.telemetry is not None:
                record = self.records[request.request_id]
                self.telemetry.on_serving_complete(
                    record.latency_ms, record.retries
                )
        self.layer_cache.after_batch(now)
        self._executor_busy = False
        self._executor_batch = None
        self._executor_handle = None
        self._maybe_start_executor()
        self._maybe_close_outage()

    # ------------------------------------------------------------------
    # fleet faults (lease revocation + deterministic retry)
    # ------------------------------------------------------------------
    def inject_fleet_faults(
        self, schedule: FaultSchedule, slots=None
    ) -> None:
        """Arm a fleet-scoped fault schedule against this serving run
        (:meth:`ClusterManager.arm_fleet_faults` strikes); ``slots``
        optionally restricts which physical slots this engine reacts to
        (the fleet-chaos harness routes one storm across co-located
        planes with disjoint masks).
        """
        if self._ran:
            raise ServiceError(
                "serving engine already ran; build a fresh one to arm faults"
            )
        self.manager.arm_fleet_faults(
            self.sim,
            schedule,
            self.slots_per_node,
            slots,
            on_revoked=self._on_lease_revoked,
            on_slot_up=self._on_slot_up,
        )

    def _on_lease_revoked(self, lease, slot: int, event: FaultEvent) -> None:
        """The serving lease was struck: dissolve in-flight batches and
        re-queue their requests at the batcher front (deterministic
        retry order: executing batch first, then executor-queue order,
        admission order within a batch)."""
        if self.lease is None or lease.lease_id != self.lease.lease_id:
            return  # a co-tenant's lease
        now = self.sim.now
        self.revocations += 1
        self.trace.record_event(
            "lease_revoke",
            now,
            stage=-1,
            job="serving",
            lease=self.lease.lease_id,
            slot=slot,
            fault=event.kind,
        )
        dissolved: List[FormedBatch] = []
        if self._executor_batch is not None:
            self._executor_handle.cancel()
            dissolved.append(self._executor_batch)
            self._executor_batch = None
            self._executor_handle = None
            self._executor_busy = False
        dissolved.extend(self._executor_queue)
        self._executor_queue = []
        self._executor_free = now
        # the executing batch's records were pre-timestamped at executor
        # start; those results never happened
        retrying: List = []
        for batch in dissolved:
            self._backlog -= len(batch)
            for request in batch.requests:
                record = self.records[request.request_id]
                record.outcome = "pending"
                record.batch_ms = None
                record.score_ms = None
                record.done_ms = None
                record.batch_index = None
                record.retries += 1
                self.trace.record_event(
                    "request_retry",
                    now,
                    subnet_id=request.request_id,
                    retries=record.retries,
                    batch=batch.index,
                )
                retrying.append(request)
        self._retire_layer_cache()
        self.lease.release()  # idempotent: frees the revoked residual
        self.lease = None
        if self._outage_start is None:  # merge back-to-back revocations
            self._outage_start = now
        if not retrying:
            return
        requeued, shed = self.batcher.requeue(retrying, now, self._backlog)
        for request in shed:
            record = self.records[request.request_id]
            record.outcome = "shed"
            self.trace.append_event(
                "request_shed",
                now,
                -1,
                request.request_id,
                _queue_depth_attrs(self.batcher.depth() + self._backlog),
            )
        for request in requeued:
            self.sim.schedule(
                now + self.spec.policy.max_linger_ms,
                lambda rid=request.request_id: self._on_linger(rid),
                priority=5,
                label="serving-linger",
            )
        while True:
            batch = self.batcher.flush_full(now)
            if batch is None:
                break
            self._on_batch(batch)

    def _on_slot_up(self, slot: int) -> None:
        if (
            self.lease is None
            and self.manager.available_gpus >= self.stages
        ):
            self._acquire_data_plane()
            self._maybe_start_executor()
            self._maybe_close_outage()

    def _maybe_close_outage(self) -> None:
        """An outage's *impact* window closes when the backlog it built
        has drained (executor idle again), not when the lease returns:
        fresh requests queued behind the retried backlog are outage
        casualties too, and the SLO accounting must see them inside the
        window."""
        if (
            self.lease is not None
            and self._outage_start is not None
            and not self._executor_busy
            and not self._executor_queue
        ):
            self.outage_windows.append((self._outage_start, self.sim.now))
            self._outage_start = None

    # ------------------------------------------------------------------
    def run(self) -> "ServingResult":
        if self._ran:
            raise ServiceError(
                "serving engine already ran; build a fresh one to run again"
            )
        self._ran = True
        # co-tenant deployments share the manager; re-install this
        # plane's clock in case another plane's construction moved it
        self.manager.clock = self.sim.clock
        requests = self.inputs.draws.requests(self.spec.workload)
        self.records = [
            RequestRecord(request_id=r.request_id, arrival_ms=r.arrival_ms)
            for r in requests
        ]
        for request in requests:
            self.sim.schedule(
                request.arrival_ms,
                lambda r=request: self._on_arrival(r),
                priority=0,
                label="serving-arrival",
            )
        self.sim.run()
        if self._outage_start is not None:  # never re-acquired
            self.outage_windows.append((self._outage_start, self.sim.now))
            self._outage_start = None
        if self.lease is not None:
            self.lease.release()
            self.lease = None
        if self.telemetry is not None:
            self.telemetry.finalize(self.sim.now)
        return ServingResult(self)


def _score_of(digest: str) -> float:
    """Deterministic pseudo-score in [0, 1) from the subnet digest.

    The functional plane's real evaluation quality lives in
    ``repro.nas``; serving benchmarks only need a stable, digest-pure
    value to memoise.
    """
    return int(digest[:12], 16) / float(16**12)


class ServingResult:
    """Finished run: per-request records plus scenario-level stats."""

    def __init__(self, engine: ServingEngine) -> None:
        self.spec = engine.spec
        self.records = engine.records
        self.trace = engine.trace
        self.result_cache = engine.result_cache
        self.layer_cache = engine.layer_cache
        self.batches_formed = engine.batcher.batches_formed
        self.revocations = engine.revocations
        self.outage_windows = list(engine.outage_windows)
        self._layer_hits = engine.layer_cache_hits()
        self._layer_misses = engine.layer_cache_misses()
        self._layer_stats = engine.layer_cache_stats()
        done_times = [
            r.done_ms for r in self.records if r.done_ms is not None
        ]
        self.makespan_ms = max(done_times) if done_times else 0.0

    def scenario_report(self) -> Dict:
        completed = [r for r in self.records if r.done_ms is not None]
        shed = [r for r in self.records if r.outcome == "shed"]
        latencies = [r.latency_ms for r in completed]
        # SLO attainment is computed over requests that never had a
        # batch dissolved under them; retried requests are accounted
        # separately (a revocation is not a scheduling-policy failure)
        fresh_lat = [r.latency_ms for r in completed if r.retries == 0]
        retried_lat = [r.latency_ms for r in completed if r.retries > 0]
        result_hits = self.result_cache.hits
        result_total = self.result_cache.hits + self.result_cache.misses
        layer_hits = self._layer_hits
        layer_total = layer_hits + self._layer_misses
        combined_total = result_total + layer_total
        slo = self.spec.slo_ms
        return {
            "requests": len(self.records),
            "completed": len(completed),
            "shed": len(shed),
            "shed_rate": len(shed) / len(self.records) if self.records else 0.0,
            "batches": self.batches_formed,
            "latency_ms": latency_stats(latencies),
            "latency_histogram": latency_histogram(latencies),
            "throughput_rps": (
                len(completed) / (self.makespan_ms / 1000.0)
                if self.makespan_ms
                else 0.0
            ),
            "slo_ms": slo,
            "slo_attainment": (
                sum(1 for lat in fresh_lat if lat <= slo) / len(fresh_lat)
                if fresh_lat
                else 0.0
            ),
            "revocations": self.revocations,
            "retries": sum(r.retries for r in self.records),
            "retried": {
                "completed": len(retried_lat),
                "slo_attainment": (
                    sum(1 for lat in retried_lat if lat <= slo)
                    / len(retried_lat)
                    if retried_lat
                    else 0.0
                ),
                "latency_ms": latency_stats(retried_lat),
            },
            "result_hit_rate": (
                result_hits / result_total if result_total else 0.0
            ),
            "layer_hit_rate": (
                layer_hits / layer_total if layer_total else 0.0
            ),
            "hit_rate": (
                (result_hits + layer_hits) / combined_total
                if combined_total
                else 0.0
            ),
            "cache": {
                "result_hits": result_hits,
                "result_misses": self.result_cache.misses,
                "result_evictions": self.result_cache.evictions,
                **self._layer_stats,
            },
            "makespan_ms": self.makespan_ms,
        }


# ----------------------------------------------------------------------
# the benchmark: three scenarios over one config
# ----------------------------------------------------------------------
def run_bench(payload: Dict) -> Dict:
    """The ``BENCH_serving.json`` payload for one serving config.

    Three scenarios share the spec: **primary** (both cache tiers on),
    **no_cache** (identical workload, caches disabled — every layer
    copy re-paid, no digest memoisation), and **overload** (arrival
    rate × ``overload_rate_factor``, caches on) exercising deterministic
    shedding while admitted requests stay inside the SLO.
    """
    spec = ServingSpec.from_payload(payload)
    # one source: the scenarios share every request path and plan, and
    # primary and no_cache the arrival times too
    inputs = ServingInputs(spec)
    # each scenario's report is built as soon as it ran and only the
    # report is kept, so at most one scenario's trace is resident
    primary = ServingEngine(
        spec, cache_enabled=True, inputs=inputs
    ).run().scenario_report()
    no_cache = ServingEngine(
        spec, cache_enabled=False, inputs=inputs
    ).run().scenario_report()
    overload_workload = WorkloadSpec(
        **{
            **spec.workload.__dict__,
            "rate_rps": spec.workload.rate_rps * spec.overload_rate_factor,
        }
    )
    overload_spec = ServingSpec(
        **{**spec.__dict__, "workload": overload_workload}
    )
    overload = ServingEngine(
        overload_spec, cache_enabled=True, inputs=inputs
    ).run().scenario_report()
    return {
        "benchmark": "serving",
        "config": {
            "space": spec.space,
            "space_overrides": spec.space_overrides or {},
            "num_gpus": spec.num_gpus,
            "total_gpus": spec.total_gpus,
            "eval_batch": spec.eval_batch,
            "requests": spec.workload.num_requests,
            "arrival": spec.workload.arrival,
            "rate_rps": spec.workload.rate_rps,
            "skew": spec.workload.skew,
            "prefix_blocks": spec.workload.prefix_blocks,
            "repeat_fraction": spec.workload.repeat_fraction,
            "seed": spec.workload.seed,
            "max_batch": spec.policy.max_batch,
            "max_linger_ms": spec.policy.max_linger_ms,
            "queue_bound": spec.policy.queue_bound,
            "result_entries": spec.result_entries,
            "cache_subnets": spec.cache_subnets,
            "slo_ms": spec.slo_ms,
            "overload_rate_factor": spec.overload_rate_factor,
        },
        "primary": primary,
        "no_cache": no_cache,
        "overload": overload,
    }
