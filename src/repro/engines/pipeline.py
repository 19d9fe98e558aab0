"""The event-driven pipeline engine.

One engine instance runs one subnet stream through a simulated cluster
under one :class:`~repro.engines.policies.base.SyncPolicy`.  The engine
owns the generic mechanics every system shares:

* per-stage queues and backward-first dispatch (Algorithm 1's skeleton);
* task execution on GPUs (durations from profiled layer costs), activation
  and gradient transfers over inter-stage links;
* context-manager integration (swap-in stalls, prefetches, evictions) for
  cached-context systems;
* the functional plane, executed in event order, with immediate or
  buffered (BSP flush) update commitment.

Policies supply only the decisions that differ between systems: admission
windows, forward selection (CSP's Algorithm 2 vs plain FIFO), and flush
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config import SystemConfig
from repro.core.context_manager import StageContextManager, stage_cache_bytes
from repro.core.runtime import CspStageState
from repro.engines.policies import make_policy
from repro.errors import (
    ConfigError,
    DeadlockError,
    GpuOutOfMemoryError,
    PartitionError,
)
from repro.memory_model import max_feasible_batch, memory_breakdown
from repro.nn.parameter_store import LayerId
from repro.partition.balanced import (
    Partition,
    balanced_partition,
    weighted_balanced_partition,
)
from repro.partition.mirror import MirrorRegistry
from repro.partition.static import static_partition_for_space
from repro.payload import integer
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.engine import SimulationEngine
from repro.sim.trace import ExecutionTrace
from repro.supernet.sampler import SubnetStream
from repro.supernet.subnet import Subnet
from repro.supernet.supernet import Supernet

if TYPE_CHECKING:
    from repro.engines.functional_plane import FunctionalPlane
    from repro.nn.program import PendingUpdate, StageActivation

__all__ = ["PipelineEngine", "PipelineResult"]

#: the ``direction`` pair of the per-task events, indexed by ``is_backward``
_DIRECTION = (("direction", "fwd"), ("direction", "bwd"))
#: ``task_done`` carries nothing else, so its whole attrs tuple is shared
_DONE_ATTRS = ((_DIRECTION[False],), (_DIRECTION[True],))


@lru_cache(maxsize=None, typed=True)
def _transfer_attrs(src: int, dst: int, nbytes: int) -> tuple:
    """``nic_transfer``'s leading attrs: one shared tuple per distinct
    ``(src, dst, nbytes)``."""
    return (("src", src), ("dst", dst), ("nbytes", nbytes))


class _LayerTable(dict):
    """``layer -> (fwd_ms_ref, bwd_ms_ref, activation_bytes_per_sample,
    param_bytes)``: every fact the engine reads of a layer, taken from
    :meth:`Supernet.profile` the first time the layer is looked up, so a
    hit is one C-level dict probe."""

    def __init__(self, supernet: Supernet) -> None:
        super().__init__()
        self.supernet = supernet

    def __missing__(self, layer: LayerId) -> Tuple[float, float, int, int]:
        profile = self.supernet.profile(layer)
        facts = self[layer] = (
            profile.fwd_ms_ref,
            profile.bwd_ms_ref,
            profile.activation_bytes_per_sample,
            profile.param_bytes,
        )
        return facts


@dataclass
class _SubnetRun:
    """Mutable per-subnet in-flight state.

    The ``stage_layers`` / ``fwd_ms`` / ``bwd_ms`` / ``boundary_bytes``
    tuples are precomputed once at injection: every scheduler decision,
    task dispatch and boundary transfer consults them, and recomputing
    layer slices and profile sums per event dominated the hot path.  The
    duration sums replicate the original per-layer accumulation order
    exactly, so makespans stay bitwise identical.
    """

    subnet: Subnet
    partition: Partition
    boundary_in: Dict[int, np.ndarray] = field(default_factory=dict)
    grad_in: Dict[int, np.ndarray] = field(default_factory=dict)
    activations: Dict[int, StageActivation] = field(default_factory=dict)
    buffered_updates: List[PendingUpdate] = field(default_factory=list)
    loss: Optional[float] = None
    #: per-stage interned layer slices (partition applied once)
    stage_layers: Tuple[Tuple[LayerId, ...], ...] = ()
    #: per-stage forward compute, unscaled reference ms
    fwd_ms: Tuple[float, ...] = ()
    #: per-stage backward compute (+ recompute re-forward), unscaled ms
    bwd_ms: Tuple[float, ...] = ()
    #: per-stage boundary activation bytes for the run's batch
    boundary_bytes: Tuple[int, ...] = ()


@dataclass
class PipelineResult:
    """Everything an experiment needs from one pipeline run."""

    system: str
    space: str
    num_gpus: int
    batch: int
    makespan_ms: float
    subnets_completed: int
    trace: ExecutionTrace
    losses: Dict[int, float]
    digest: Optional[str]
    bubble_ratio: float
    total_alu: float
    cache_hit_rate: Optional[float]
    throughput_samples_per_sec: float
    mean_exec_ms: float
    mirror_push_bytes: int
    scheduler_calls: int
    oom_retries: int = 0
    #: worst per-stage cached parameter footprint observed (bytes);
    #: None for full-context systems.
    peak_cache_bytes: Optional[int] = None
    #: scheduler cost accounting (CSP systems; zero otherwise)
    scheduler_ready_pops: int = 0
    # -- fault tolerance (repro.ft) ------------------------------------
    #: True when a fatal fault halted the run before the stream drained;
    #: completions/losses then cover only the surviving prefix
    interrupted: bool = False
    interrupt_kind: str = ""
    interrupt_time_ms: float = 0.0
    fault_count: int = 0
    task_retries: int = 0
    checkpoint_cuts: List[int] = field(default_factory=list)
    #: chronological degradation-mitigation log (repro.ft.degradation);
    #: part of a run's replayable identity, compared by verify_replay
    mitigation_actions: List[Dict] = field(default_factory=list)

    #: one engine incarnation (a recovered run's
    #: :class:`~repro.ft.recovery.FaultedRunResult` counts its restarts)
    num_attempts = 1
    lost_virtual_ms = recovery_latency_ms = 0.0

    @property
    def final_gpus(self) -> int:
        return self.num_gpus

    @property
    def completion_order(self) -> List[int]:
        """Subnet ids in the order they completed."""
        times = self.trace.subnet_completion_times
        return sorted(times, key=times.__getitem__)

    def summary(self) -> str:
        hit = (
            f"{self.cache_hit_rate * 100:.1f}%"
            if self.cache_hit_rate is not None
            else "N/A"
        )
        return (
            f"{self.system:>22s} {self.space:>7s} D={self.num_gpus:<2d} "
            f"batch={self.batch:<4d} thr={self.throughput_samples_per_sec:8.1f}/s "
            f"bubble={self.bubble_ratio:.2f} ALU={self.total_alu:.1f}x hit={hit}"
        )

    # -- observability (repro.obs) -------------------------------------
    def trace_export(self, path=None, label: Optional[str] = None) -> str:
        """Chrome Trace Event Format JSON for this run (Perfetto /
        ``chrome://tracing``); written to ``path`` when given.

        Deterministic byte-for-byte: the same configuration always
        exports the identical file (the trace of the trace is itself
        reproducible).  See ``docs/TRACING.md`` for the track layout.
        """
        from repro.obs import export_chrome_trace

        return export_chrome_trace(
            self.trace,
            path=path,
            label=label or f"{self.system}/{self.space}",
            system=self.system,
            space=self.space,
            batch=self.batch,
        )

    def critical_path(self):
        """Critical-path breakdown of this run: the longest dependency
        chain to final completion, attributed by resource class; its
        segments tile the makespan exactly (1e-9).  See
        ``docs/ANALYSIS.md``.
        """
        from repro.obs import critical_path_breakdown

        return critical_path_breakdown(self.trace)

    def what_if(self):
        """What-if report: projected makespans under relaxed-subsystem
        scenarios (zero fetch stalls, infinite NIC, perfect predictor,
        the no-CSP/ASP bound), ranked by savings.  See
        ``docs/ANALYSIS.md`` for the model's assumptions.
        """
        from repro.obs import what_if_report

        return what_if_report(self.trace)

    def telemetry(self, rules=None):
        """Post-hoc :class:`~repro.obs.telemetry.TelemetryHub` for this
        run: the trace's events replayed through the telemetry listener,
        giving the identical final instrument state a live hub would
        hold (the listener is a pure function of the event stream).  See
        ``docs/TELEMETRY.md``.
        """
        from repro.obs.telemetry import replay_telemetry

        return replay_telemetry(self.trace, rules=rules)


class PipelineEngine:
    """Runs one (system, space, cluster, stream) combination."""

    def __init__(
        self,
        supernet: Supernet,
        stream: SubnetStream,
        config: SystemConfig,
        cluster_spec: Optional[ClusterSpec] = None,
        batch: Optional[int] = None,
        functional: Optional[FunctionalPlane] = None,
        faults=None,
        checkpoints=None,
        degradation: bool = False,
        telemetry=None,
    ) -> None:
        self.supernet = supernet
        self.space = supernet.space
        self.stream = stream
        self.config = config
        self.cluster = self._resolve_cluster(cluster_spec)
        self.stages = self.cluster.num_stages
        if self.space.num_blocks < self.stages:
            raise PartitionError(
                f"{self.space.name}: {self.space.num_blocks} choice blocks "
                f"cannot fill {self.stages} pipeline stages"
            )

        if batch is None:
            batch = max_feasible_batch(supernet, config, self.cluster.spec)
            if batch is None:
                breakdown = memory_breakdown(supernet, config, self.cluster.spec, 4)
                raise GpuOutOfMemoryError(
                    0, breakdown.total, breakdown.usable_bytes
                )
        self.batch = integer("engine", "batch", batch, 1)
        #: batch-dependent compute scaling, constant for the whole run
        self._batch_scale = supernet.batch_time_scale(batch)
        #: per-stage compute slowdown, constant for the whole run
        self._stage_speed = tuple(
            self.cluster.spec.speed_factor(stage) for stage in range(self.stages)
        )
        #: §2.3's on-demand operator migration is in force
        self._migrates = (
            config.partitioning == "balanced" and config.mirror_mode == "migrate"
        )
        #: the facts this engine reads of each layer, resolved the first
        #: time it sees the layer; it lives and dies with the engine
        self._layers = _LayerTable(supernet)

        self.trace = ExecutionTrace(num_gpus=self.stages)
        self.sim = SimulationEngine(trace=self.trace)
        #: optional :class:`~repro.obs.telemetry.TelemetryHub` — a pure
        #: observer (trace listener + scrape events); arming it changes
        #: no engine decision, so digests stay bitwise identical
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self.trace, self.sim)
        self.functional = functional
        self.policy = make_policy(config, self.stages)

        self.stage_states: List[CspStageState] = [
            CspStageState(stage, trace=self.trace, clock=self.sim.clock)
            for stage in range(self.stages)
        ]
        self._stage_busy: List[bool] = [False] * self.stages
        self._last_was_backward: List[bool] = [False] * self.stages
        # Bind after the stage states exist: policies that mirror the
        # forward queues (CSP's readiness index) subscribe to them here.
        self.policy.bind(self)
        self.runs: Dict[int, _SubnetRun] = {}
        self.inflight: Set[int] = set()
        self.started: Set[int] = set()
        self._active_started = 0
        self.oom_retries = 0
        self.completed: Dict[int, float] = {}
        self.losses: Dict[int, float] = {}

        # Static run facts the offline analyses (critical path, what-if
        # projection) need; emitted as events so a bare ExecutionTrace is
        # self-describing without the engine that produced it.
        self.trace.record_event(
            "run_meta",
            self.sim.now,
            system=config.name,
            num_stages=self.stages,
            batch=self.batch,
            window=config.default_window(self.stages),
            sync=config.sync,
        )
        for link in self.cluster.forward_links + self.cluster.backward_links:
            self.trace.record_event(
                "link_meta",
                self.sim.now,
                src=link.src,
                dst=link.dst,
                bandwidth=link.bandwidth_bytes_per_ms,
                latency=link.latency_ms,
            )

        self.home_partition = static_partition_for_space(supernet, self.stages)
        self.mirror_registry = (
            MirrorRegistry(self.home_partition)
            if config.mirroring and config.mirror_mode == "mirror"
            else None
        )
        #: migrate mode: the single current residence of each layer
        #: (initialised lazily to the layer's static home stage).
        self._layer_location: Dict[LayerId, int] = {}
        self.migration_ms_total = 0.0
        self.migration_count = 0

        self.contexts: Optional[List[StageContextManager]] = None
        if config.context == "cached":
            capacity = stage_cache_bytes(
                supernet, config.cache_subnets, self.stages
            )
            self.contexts = [
                StageContextManager(
                    stage,
                    supernet,
                    self.cluster.copy_engines[stage],
                    capacity,
                    self.trace,
                )
                for stage in range(self.stages)
            ]

        # -- fault tolerance (repro.ft), bound last: the injector
        # schedules fault events into the (now fully built) sim queue,
        # the checkpoint manager observes functional-plane commits.
        self.faults = faults
        self.checkpoints = checkpoints
        self.task_retries = 0
        self.interrupted = False
        self.interrupt_kind = ""
        self.interrupt_time_ms = 0.0
        if checkpoints is not None:
            checkpoints.bind(self)
        if faults is not None:
            faults.bind(self)

        # -- graceful degradation (repro.ft.degradation): the health
        # monitor listens to the trace stream; mitigations act through
        # admission_cap, per-stage prefetch throttles and partition
        # weights — all consulted at safe decision points.
        #: in-flight cap imposed by active mitigation (None = no cap)
        self.admission_cap: Optional[int] = None
        self.degradation = None
        if degradation:
            # lazy: import cycle, and an unarmed run never loads repro.ft
            from repro.ft.degradation import DegradationManager

            self.degradation = DegradationManager()
            self.degradation.bind(self)

    @staticmethod
    def _resolve_cluster(source) -> Cluster:
        """Accept the three ways an engine can be given devices.

        A bare :class:`ClusterSpec` (or ``None``) keeps the historical
        behaviour: the engine constructs — and solely owns — its
        cluster.  A pre-built :class:`Cluster` is adopted as-is.  Any
        lease-shaped object (``materialize()`` returning a cluster, see
        :class:`repro.service.lease.DeviceLease`) defers device
        ownership to the granting ``ClusterManager``: the engine runs on
        the materialised view of its leased physical slots and never
        touches devices it was not granted.
        """
        if source is None:
            return Cluster(ClusterSpec())
        if isinstance(source, Cluster):
            return source
        if isinstance(source, ClusterSpec):
            return Cluster(source)
        materialize = getattr(source, "materialize", None)
        if callable(materialize):
            return materialize()
        raise ConfigError(
            f"cannot build a cluster from {type(source).__name__}; expected "
            "ClusterSpec, Cluster or a device lease"
        )

    # ------------------------------------------------------------------
    # helpers used by policies
    # ------------------------------------------------------------------
    def subnet_of(self, subnet_id: int) -> Subnet:
        return self.runs[subnet_id].subnet

    def stage_layers(self, subnet_id: int, stage: int) -> Sequence[LayerId]:
        return self.runs[subnet_id].stage_layers[stage]

    def active_started_count(self) -> int:
        """Subnets whose first forward has begun but which have not
        completed — the set that actually holds activation stashes."""
        return self._active_started

    def oldest_unfinished_subnet(self) -> int:
        if self.inflight:
            return min(self.inflight)
        # stream ids start at the resume base for recovered runs
        return self.stream.base + len(self.completed)

    def prefetch_context(self, stage: int, layers: Sequence[LayerId]) -> None:
        if self.contexts is not None:
            self.contexts[stage].prefetch(layers, self.sim.now)

    def effective_window(self, base: int) -> int:
        """Admission window after degradation backpressure (identity
        when no mitigation is active).  Policies that own their
        admission barrier (BSP's bulk flush) never consult this."""
        if self.admission_cap is None:
            return base
        return max(1, min(base, self.admission_cap))

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def _partition_for(self, subnet: Subnet) -> Partition:
        if self.config.partitioning == "static":
            return list(self.home_partition)
        costs = [
            facts[0] + facts[1]
            for facts in map(self._layers.__getitem__, subnet.layer_ids())
        ]
        weights = (
            self.degradation.partition_weights()
            if self.degradation is not None
            else None
        )
        if weights is not None:
            # Straggler rebalancing: boundaries shift away from weighted
            # (slow) stages; off-home layers materialise as replicas
            # through the mirror registry at registration below.
            return weighted_balanced_partition(costs, self.stages, weights)
        return balanced_partition(costs, self.stages)

    def _try_inject(self) -> None:
        while self.stream.remaining and self.policy.can_inject():
            subnet = self.stream.retrieve()
            assert subnet is not None
            partition = self._partition_for(subnet)
            run = _SubnetRun(subnet, partition)
            self._precompute_run(run)
            self.runs[subnet.subnet_id] = run
            self.inflight.add(subnet.subnet_id)
            if self.mirror_registry is not None:
                self.mirror_registry.register_stages(run.stage_layers, self.sim.now)
            if self.functional is not None:
                run.boundary_in[0] = self.functional.input_for(subnet)
            self.policy.on_injected(subnet.subnet_id)
            sid = subnet.subnet_id
            self.trace.record_event("subnet_inject", self.sim.now, subnet_id=sid)
            self.sim.schedule_after(
                0.0, lambda sid=sid: self._on_forward_arrival(0, sid),
                label=("inject SN%s", sid),
            )

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------
    def _on_forward_arrival(self, stage: int, subnet_id: int) -> None:
        self.stage_states[stage].enqueue_forward(subnet_id)
        self._kick(stage)

    def _on_backward_arrival(self, stage: int, subnet_id: int) -> None:
        self.stage_states[stage].enqueue_backward(subnet_id)
        self._kick(stage)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _kick(self, stage: int) -> None:
        if self._stage_busy[stage]:
            return
        state = self.stage_states[stage]
        # Algorithm 1's loop handles one backward then one forward per
        # iteration: backwards take priority (they release downstream
        # dependencies) but alternate with forwards so the forward wave
        # keeps feeding the pipeline (the 1B1F cadence PipeDream's 1F1B
        # also follows).  A pure backward-first rule convoys backwards and
        # periodically starves every stage's forward queue.
        prefer_forward = self._last_was_backward[stage]
        if prefer_forward:
            chosen = self.policy.select_forward(stage)
            if chosen is not None:
                state.pop_forward(chosen)
                self._begin_task(stage, chosen, is_backward=False)
                return
        subnet_id = state.pop_backward()
        if subnet_id is not None:
            self._begin_task(stage, subnet_id, is_backward=True)
            return
        if not prefer_forward:
            chosen = self.policy.select_forward(stage)
            if chosen is not None:
                state.pop_forward(chosen)
                self._begin_task(stage, chosen, is_backward=False)

    def _home_stage(self, layer: LayerId) -> int:
        block = layer[0]
        for stage, (start, stop) in enumerate(self.home_partition):
            if start <= block < stop:
                return stage
        raise KeyError(f"block {block} outside home partition")

    def _migration_delay_ms(self, stage: int, layers, now: float) -> float:
        """On-demand operator migration cost (§2.3's rejected design).

        In ``migrate`` mode a layer lives on exactly one stage; executing
        it elsewhere first moves its parameters over the interconnect,
        synchronously, on the critical path.  Mirroring eliminates this
        ("NASPipe mirrors these operators between stages and eliminates
        these costs") at the price of push-sync traffic.  Called only
        while ``_migrates``.
        """
        bandwidth = self.cluster.spec.network_bandwidth_bytes_per_ms
        latency = self.cluster.spec.network_latency_ms
        delay = 0.0
        for layer in layers:
            location = self._layer_location.get(layer)
            if location is None:
                location = self._home_stage(layer)
            if location != stage:
                delay += self._layers[layer][3] / bandwidth + latency
                self.migration_count += 1
            self._layer_location[layer] = stage
        if delay:
            self.migration_ms_total += delay
            self.trace.record_interval(stage, now, now + delay, "stall", -1)
            self.trace.record_event(
                "migration", now, stage=stage, delay_ms=delay
            )
        return delay

    def _precompute_run(self, run: _SubnetRun) -> None:
        """Freeze the per-stage views of one injected subnet.

        The backward sums interleave ``bwd + fwd`` per layer exactly as
        the original per-event loop did (float addition is not
        associative; a reordered sum would shift makespans bitwise).
        """
        facts_of = self._layers.__getitem__
        recompute = self.config.recompute
        batch = self.batch
        layer_ids = run.subnet.layer_ids()
        stage_layers = tuple(
            [layer_ids[max(start, 0) : max(stop, 0)] for start, stop in run.partition]
        )
        fwd_ms: List[float] = []
        bwd_ms: List[float] = []
        boundary: List[int] = []
        for layers in stage_layers:
            fwd = 0.0
            bwd = 0.0
            # the boundary is the stage's last layer's (none: 0 bytes)
            act = 0
            for fwd_ref, bwd_ref, act, _ in map(facts_of, layers):
                fwd += fwd_ref
                bwd += bwd_ref
                if recompute:
                    bwd += fwd_ref  # checkpoint re-forward
            fwd_ms.append(fwd)
            bwd_ms.append(bwd)
            boundary.append(act * batch)
        run.stage_layers = stage_layers
        run.fwd_ms = tuple(fwd_ms)
        run.bwd_ms = tuple(bwd_ms)
        run.boundary_bytes = tuple(boundary)

    #: oversubscription level treated as a GPU OOM, and the penalty paid
    #: to catch the exception, reclaim memory and re-execute the stage
    #: (paper §4.2's retry path).
    OOM_THRESHOLD = 1.5
    OOM_RETRY_PENALTY_MS = 5.0

    def _begin_task(
        self, stage: int, subnet_id: int, is_backward: bool,
        retrying: bool = False,
    ) -> None:
        now = self.sim.now
        self._stage_busy[stage] = True
        if stage == 0 and not is_backward and subnet_id not in self.started:
            self.started.add(subnet_id)
            self._active_started += 1
        run = self.runs[subnet_id]
        layers = run.stage_layers[stage]
        if (
            self.contexts is not None
            and not retrying
            and self.contexts[stage].oversubscription() > self.OOM_THRESHOLD
        ):
            # Simulated CUDA OOM: catch, reclaim, re-execute (§4.2).
            # Checked before any other time is spent so the retry stall
            # never overlaps migration or swap-in intervals.
            self.oom_retries += 1
            self.contexts[stage].reclaim(now)
            retry_at = now + self.OOM_RETRY_PENALTY_MS
            self.trace.record_interval(stage, now, retry_at, "stall", subnet_id)
            self.trace.record_event(
                "oom_retry",
                now,
                stage=stage,
                subnet_id=subnet_id,
                penalty_ms=self.OOM_RETRY_PENALTY_MS,
                retry_at=retry_at,
            )
            self.sim.schedule(
                retry_at,
                lambda: self._begin_task(
                    stage, subnet_id, is_backward, retrying=True
                ),
                label=("oom-retry SN%s@P%s", subnet_id, stage),
            )
            return
        if self.faults is not None:
            # Transient task error (repro.ft): the dispatch fails, the
            # stage stalls for an exponential backoff, the task retries.
            # Checked on retries too — each armed failure consumes one
            # dispatch, so magnitude-N faults fail N consecutive times.
            fault = self.faults.take_task_fault(stage)
            if fault is not None:
                attempt, delay_ms = fault
                self.task_retries += 1
                retry_at = now + delay_ms
                direction = "bwd" if is_backward else "fwd"
                self.trace.record_interval(stage, now, retry_at, "stall", subnet_id)
                self.trace.record_event(
                    "task_retry",
                    now,
                    stage=stage,
                    subnet_id=subnet_id,
                    attempt=attempt,
                    delay_ms=delay_ms,
                    direction=direction,
                )
                self.sim.schedule(
                    retry_at,
                    lambda: self._begin_task(
                        stage, subnet_id, is_backward, retrying=True
                    ),
                    label=("task-retry SN%s@P%s", subnet_id, stage),
                )
                return
        start = now
        if self._migrates:
            start += self._migration_delay_ms(stage, layers, now)
        if self.contexts is not None:
            context = self.contexts[stage]
            plan = context.acquire_for_task(layers, start)
            if plan.ready_time > start:
                # Synchronous swap-in: the GPU idles until the copy lands.
                self.trace.record_interval(
                    stage, start, plan.ready_time, "stall", subnet_id
                )
                self.trace.record_event(
                    "fetch_stall",
                    start,
                    stage=stage,
                    subnet_id=subnet_id,
                    wait_ms=plan.ready_time - start,
                    misses=plan.misses,
                )
                start = plan.ready_time
        self.policy.before_task(stage, subnet_id, is_backward)
        if self.contexts is not None and self.config.predictor:
            # Status passed between stages (paper §3.3): as this task
            # starts, its successor stage prefetches the same subnet's
            # slice — a full task duration of copy lead time.
            if is_backward and stage > 0:
                self.prefetch_context(
                    stage - 1, self.stage_layers(subnet_id, stage - 1)
                )
            elif not is_backward and stage < self.stages - 1:
                self.prefetch_context(
                    stage + 1, self.stage_layers(subnet_id, stage + 1)
                )
        base = run.bwd_ms[stage] if is_backward else run.fwd_ms[stage]
        duration = base * self._batch_scale * self._stage_speed[stage]
        self._last_was_backward[stage] = is_backward
        kind = "bwd" if is_backward else "fwd"
        self.trace.record_interval(stage, start, start + duration, kind, subnet_id)
        attrs = (_DIRECTION[is_backward], ("start", start), ("end", start + duration))
        self.trace.append_event("task_dispatch", now, stage, subnet_id, attrs)
        self.sim.schedule(
            start + duration,
            lambda: self._on_task_done(stage, subnet_id, is_backward),
            label=("SN%s.%s@P%s", subnet_id, kind, stage),
        )

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _on_task_done(self, stage: int, subnet_id: int, is_backward: bool) -> None:
        self._stage_busy[stage] = False
        self.trace.append_event(
            "task_done", self.sim.now, stage, subnet_id, _DONE_ATTRS[is_backward]
        )
        if is_backward:
            self._finish_backward(stage, subnet_id)
        else:
            self._finish_forward(stage, subnet_id)
        # Edge-triggered, like Algorithm 1's receiveFwd/receiveBwd loop:
        # the own stage is idle now, and beyond it only the stages the
        # policy names can have gained something to run — those whose
        # ready list a released layer changed (CSP), or every stage when
        # the gate reads global state (SSP staleness).
        self._kick(stage)
        for other in self.policy.wakes():
            if other != stage:
                self._kick(other)
        self._try_inject()

    def _boundary_bytes(self, subnet_id: int, stage: int) -> int:
        return self.runs[subnet_id].boundary_bytes[stage]

    def _record_transfer(
        self, stage: int, subnet_id: int, dst: int, nbytes: int, arrival: float,
        is_backward: bool,
    ) -> None:
        attrs = _transfer_attrs(stage, dst, nbytes) + (
            ("arrive", arrival),
            _DIRECTION[is_backward],
        )
        self.trace.append_event(
            "nic_transfer", self.sim.now, stage, subnet_id, attrs
        )

    def _finish_forward(self, stage: int, subnet_id: int) -> None:
        now = self.sim.now
        run = self.runs[subnet_id]
        if self.functional is not None:
            activation = self.functional.forward_stage(
                run.subnet, stage, run.partition[stage], run.boundary_in[stage], now
            )
            run.activations[stage] = activation
        if self.contexts is not None:
            # Algorithm 1 line 24: ctxt_manager(fwd_id, EVICT) — the slice
            # leaves the cache after the forward; the pending-backward
            # prefetch (issued when the backward starts upstream) brings
            # it back with a task's worth of lead time.
            context = self.contexts[stage]
            context.release_after_task(
                self.stage_layers(subnet_id, stage), now, dirty=False
            )
            if stage < self.stages - 1:
                # At the last stage the backward runs immediately on the
                # same GPU — evicting there would guarantee a refetch.
                context.evict_subnet(self.stage_layers(subnet_id, stage), now)

        if stage < self.stages - 1:
            if self.functional is not None:
                run.boundary_in[stage + 1] = run.activations[stage].stage_output
            nbytes = self._boundary_bytes(subnet_id, stage)
            arrival = self.cluster.forward_link(stage).transfer(nbytes, now)
            self._record_transfer(stage, subnet_id, stage + 1, nbytes, arrival, False)
            self.sim.schedule(
                arrival,
                lambda: self._on_forward_arrival(stage + 1, subnet_id),
                label=("fwd-xfer SN%s->P%s", subnet_id, stage + 1),
            )
        else:
            # Last stage: loss is available; the backward chain begins here.
            if self.functional is not None:
                loss, dfinal = self.functional.loss_and_grad(
                    run.subnet, run.activations[stage].stage_output
                )
                run.loss = float(loss)
                run.grad_in[stage] = dfinal
                self.losses[subnet_id] = float(loss)
            self.stage_states[stage].enqueue_backward(subnet_id)

        self.policy.on_forward_done(stage, subnet_id)

    def _finish_backward(self, stage: int, subnet_id: int) -> None:
        now = self.sim.now
        run = self.runs[subnet_id]
        layers = self.stage_layers(subnet_id, stage)

        if self.functional is not None:
            activation = run.activations.pop(stage)
            dinput, updates = self.functional.backward_stage(
                activation, run.grad_in.pop(stage)
            )
            if stage > 0:
                run.grad_in[stage - 1] = dinput
            if self.policy.commits_immediately:
                self._commit_updates(updates, now)
            else:
                run.buffered_updates.extend(updates)

        if self.mirror_registry is not None:
            for layer in layers:
                self.mirror_registry.record_update_push(
                    layer, self._layers[layer][3]
                )

        if self.contexts is not None:
            context = self.contexts[stage]
            context.release_after_task(layers, now, dirty=True)
            context.evict_subnet(layers, now)

        self.stage_states[stage].finish_backward(subnet_id)
        self.policy.on_backward_done(stage, subnet_id)

        if stage > 0:
            nbytes = self._boundary_bytes(subnet_id, stage - 1)
            arrival = self.cluster.backward_link(stage).transfer(nbytes, now)
            self._record_transfer(stage, subnet_id, stage - 1, nbytes, arrival, True)
            self.sim.schedule(
                arrival,
                lambda: self._on_backward_arrival(stage - 1, subnet_id),
                label=("bwd-xfer SN%s->P%s", subnet_id, stage - 1),
            )
        else:
            self._complete_subnet(subnet_id)

    def _complete_subnet(self, subnet_id: int) -> None:
        now = self.sim.now
        self.inflight.discard(subnet_id)
        if subnet_id in self.started:
            self.started.discard(subnet_id)
            self._active_started -= 1
        self.completed[subnet_id] = now
        self.trace.record_subnet_complete(subnet_id, now)
        flush_ids = self.policy.on_subnet_complete(subnet_id)
        self._flush(flush_ids)
        if self.checkpoints is not None:
            self.checkpoints.on_subnet_complete(subnet_id, now)
        if self.faults is not None and len(self.completed) == len(self.stream):
            # the run is over; faults scheduled past this point are moot
            # and must not keep the virtual clock ticking
            self.faults.cancel_pending()
        # Drop the run state we no longer need (keep subnet + partition for
        # late queries; activations and boundaries are already consumed).
        run = self.runs[subnet_id]
        run.boundary_in.clear()
        run.grad_in.clear()

    def _flush(self, flush_ids: Sequence[int]) -> None:
        if self.functional is None:
            return
        for sid in flush_ids:
            run = self.runs[sid]
            updates = sorted(
                run.buffered_updates, key=lambda update: update.layer
            )
            self._commit_updates(updates, self.sim.now)
            run.buffered_updates.clear()

    def _commit_updates(self, updates: Sequence[PendingUpdate], now: float) -> None:
        """Apply updates through the functional plane, letting the
        checkpoint manager capture pre-images first (the undo log must
        see the state the write is about to clobber)."""
        if self.checkpoints is not None:
            self.checkpoints.observe_updates(updates)
        self.functional.commit(updates, now)

    # ------------------------------------------------------------------
    # fault tolerance (repro.ft)
    # ------------------------------------------------------------------
    def _on_fatal_fault(self, event) -> None:
        """Fail-stop: a GPU or host died.  In-flight work vanishes (the
        event queue is cleared), the run returns interrupted, and
        :mod:`repro.ft.recovery` restarts from the latest consistent
        checkpoint."""
        now = self.sim.now
        spec = self.cluster.spec
        if event.kind == "host_crash":
            stages = [
                stage
                for stage in range(self.stages)
                if spec.host_of(stage) == event.target
            ]
        else:
            stages = [event.target]
        for stage in stages:
            self.trace.record_event(
                "gpu_down",
                now,
                stage=stage,
                cause=event.kind,
                down_ms=event.duration_ms,
            )
        self.interrupted = True
        self.interrupt_kind = event.kind
        self.interrupt_time_ms = now
        self.sim.queue.clear()

    # ------------------------------------------------------------------
    def run(self) -> PipelineResult:
        self._try_inject()
        self.sim.run()
        if not self.interrupted:
            self._flush(self.policy.finalize())
            if len(self.completed) != len(self.stream):
                raise DeadlockError(
                    {
                        "completed": len(self.completed),
                        "stream": len(self.stream),
                        "inflight": sorted(self.inflight),
                    },
                    blocked=self._blocked_edges_dump(),
                )
        if self.telemetry is not None:
            self.telemetry.finalize(self.sim.now)
        return self._result()

    def _blocked_edges_dump(self) -> Dict[int, Dict]:
        """Per-stage diagnostic for premature quiescence: every queued
        forward with its first unreleased (blocking subnet, layer) edge
        from the dependency tracker (``None`` = held by an admission or
        window gate, not a causal dependency), the backward-ready lists,
        and ``runnable`` — the forward the policy would dispatch there
        right now.  Anything but ``None`` on an idle stage means the
        stage was never polled: a wake-set bug, not a causal wedge."""
        tracker = self.policy.tracker
        dump: Dict[int, Dict] = {}
        for state in self.stage_states:
            if not state.queue and not state.backward_ready:
                continue
            edges = []
            for sid in state.queue:
                blocking = (
                    tracker.blocking_user(
                        sid, self.stage_layers(sid, state.stage)
                    )
                    if tracker is not None
                    else None
                )
                if blocking is None:
                    edges.append({"subnet": sid, "blocked_on": None})
                else:
                    user, layer = blocking
                    edges.append(
                        {
                            "subnet": sid,
                            "blocked_on": {"subnet": user, "layer": layer},
                        }
                    )
            dump[state.stage] = {
                "forward": edges,
                "backward_ready": list(state.backward_ready),
                "runnable": (
                    None
                    if self._stage_busy[state.stage] or not state.queue
                    else self._muted_poll(state.stage)
                ),
            }
        return dump

    def _muted_poll(self, stage: int) -> Optional[int]:
        """``policy.select_forward(stage)`` asked post-mortem: a scratch
        trace swallows the events the poll emits and the scheduler's
        effort counters are put back, so the dead run's record stays as
        quiescence left it."""
        scheduler = self.policy.scheduler
        counters = dict(vars(scheduler)) if scheduler is not None else {}
        trace, self.trace = self.trace, ExecutionTrace(num_gpus=self.stages)
        try:
            return self.policy.select_forward(stage)
        finally:
            self.trace = trace
            if scheduler is not None:
                vars(scheduler).update(counters)

    # ------------------------------------------------------------------
    def _result(self) -> PipelineResult:
        cache_hit = None
        if self.contexts is not None:
            hits = sum(context.hits for context in self.contexts)
            misses = sum(context.misses for context in self.contexts)
            if hits + misses:
                cache_hit = hits / (hits + misses)
        scheduler = self.policy.scheduler
        bubble_ratio, total_alu, mean_exec_ms = self.trace.utilization(
            self.supernet.gpu_alu_efficiency(self.batch)
        )
        return PipelineResult(
            system=self.config.name,
            space=self.space.name,
            num_gpus=self.stages,
            batch=self.batch,
            makespan_ms=self.trace.makespan,
            subnets_completed=len(self.completed),
            trace=self.trace,
            losses=dict(self.losses),
            digest=self.functional.digest() if self.functional else None,
            bubble_ratio=bubble_ratio,
            total_alu=total_alu,
            cache_hit_rate=cache_hit,
            throughput_samples_per_sec=self.trace.throughput_samples_per_sec(
                self.batch
            ),
            mean_exec_ms=mean_exec_ms,
            mirror_push_bytes=(
                self.mirror_registry.push_bytes_total if self.mirror_registry else 0
            ),
            scheduler_calls=scheduler.calls if scheduler else 0,
            scheduler_ready_pops=scheduler.ready_pops if scheduler else 0,
            oom_retries=self.oom_retries,
            peak_cache_bytes=(
                max(c.peak_resident_bytes for c in self.contexts)
                if self.contexts
                else None
            ),
            interrupted=self.interrupted,
            interrupt_kind=self.interrupt_kind,
            interrupt_time_ms=self.interrupt_time_ms,
            fault_count=self.faults.fault_count if self.faults else 0,
            task_retries=self.task_retries,
            checkpoint_cuts=(
                [c.cut for c in self.checkpoints.commits]
                if self.checkpoints
                else []
            ),
            mitigation_actions=(
                list(self.degradation.actions) if self.degradation else []
            ),
        )
