"""The pipeline engine's per-task path as it was before its per-run
facts were resolved once.

Until then every schedule went through ``SimulationEngine.schedule``
and formatted its label, every clock read passed two properties (and a
lambda, for a stage's ``queue_depth`` sample), every injection check
recomputed the policy's window, every task asked the cluster spec for
its speed factor and the config for the migrate mode, every transfer
built its attrs afresh, and the result walked the intervals twice per
GPU.  The methods below are the engine's, the policy's and the trace's
of that time, copied verbatim, so ``tests/test_engine_reference.py``
can run them beside the live engine and demand the same trace columns,
intervals and result fields (by ``repr``).  One edit since: a
``_SubnetRun`` no longer takes its injection time, which nothing read.

The analytic bubble fractions the theory-anchor tests hold the engine's
configurations to sit at the end.
"""

from __future__ import annotations

import dataclasses
from typing import List

from readback_reference import busy_time
from repro.engines.pipeline import _DIRECTION, PipelineEngine, _SubnetRun
from repro.engines.policies.base import SyncPolicy

__all__ = ["ReferenceEngine", "gpipe_theory_bubble", "pipeline_theory_bubble"]


class _ParentWindow:
    """``SyncPolicy``'s window, effective window and admission check."""

    @property
    def window(self) -> int:
        return self.config.default_window(self.stages)

    def effective_window(self) -> int:
        """The window after any engine-side degradation backpressure
        (``PipelineEngine.admission_cap``).  Policies that manage their
        own admission barrier (BSP's bulk flush) must not consult this —
        shrinking a bulk below its flush size would deadlock the
        barrier."""
        return self.engine.effective_window(self.window)

    def can_inject(self) -> bool:
        assert self.engine is not None
        return len(self.engine.inflight) < self.effective_window()


def _with_parent_window(policy: SyncPolicy) -> None:
    """Give ``policy`` the parent's window methods where its class does
    not define its own (BSP and CSP keep their ``can_inject``)."""
    cls = type(policy)
    namespace = {
        name: vars(_ParentWindow)[name]
        for name in ("window", "effective_window", "can_inject")
        if name == "window" or getattr(cls, name) is vars(SyncPolicy)[name]
    }
    policy.__class__ = type(f"Reference{cls.__name__}", (cls,), namespace)


# -- ExecutionTrace's metrics, as functions of the trace -----------------
def bubble_ratio(self) -> float:
    """Mean idle fraction across GPUs over the active window.

    Table 2's "Bub." column (and the y-axis of Figure 7's bubble
    panel).  Dimensionless in [0, 1].  The per-cause decomposition of
    the same quantity lives in
    :func:`repro.obs.summary.bubble_attribution`, which sums back to
    this value within 1e-9.
    """
    if self.makespan <= 0:
        return 0.0
    idle_fractions = []
    for gpu_id in range(self.num_gpus):
        busy = busy_time(self, gpu_id, compute_only=True)
        idle_fractions.append(1.0 - min(1.0, busy / self.makespan))
    return sum(idle_fractions) / len(idle_fractions)


def total_alu_utilization(self, alu_efficiency: float = 1.0) -> float:
    """Sum over GPUs of (busy fraction × ALU efficiency).

    Table 2's "GPU ALU" column and Figure 7's utilisation panel.
    Matches the paper's normalisation: "7.8×" means the summed
    utilisation equals 7.8 fully-busy GPUs.  Dimensionless.
    """
    if self.makespan <= 0:
        return 0.0
    total = 0.0
    for gpu_id in range(self.num_gpus):
        busy = busy_time(self, gpu_id, compute_only=True)
        total += min(1.0, busy / self.makespan) * alu_efficiency
    return total


def register_subnet(registry, subnet, partition, time: float = 0.0):
    """``MirrorRegistry.register_subnet``: mirror every layer the subnet
    runs off its home stage; returns the events this created."""
    return registry.register_stages(
        [subnet.layers_in_range(start, stop) for start, stop in partition], time
    )


class ReferenceEngine(PipelineEngine):
    """A :class:`PipelineEngine` that runs the per-task path as it was."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for state in self.stage_states:
            state.clock = lambda: self.sim.now
        _with_parent_window(self.policy)

    def _result(self):
        result = super()._result()
        return dataclasses.replace(
            result,
            bubble_ratio=bubble_ratio(self.trace),
            total_alu=total_alu_utilization(
                self.trace, self.supernet.gpu_alu_efficiency(self.batch)
            ),
        )

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
                register_subnet(self.mirror_registry, subnet, partition, self.sim.now)
            if self.functional is not None:
                run.boundary_in[0] = self.functional.input_for(subnet)
            self.policy.on_injected(subnet.subnet_id)
            sid = subnet.subnet_id
            self.trace.record_event("subnet_inject", self.sim.now, subnet_id=sid)
            self.sim.schedule_after(
                0.0, lambda sid=sid: self._on_forward_arrival(0, sid),
                label=f"inject SN{sid}",
            )

    def _migration_delay_ms(self, stage: int, layers, now: float) -> float:
        """On-demand operator migration cost (§2.3's rejected design).

        In ``migrate`` mode a layer lives on exactly one stage; executing
        it elsewhere first moves its parameters over the interconnect,
        synchronously, on the critical path.  Mirroring eliminates this
        ("NASPipe mirrors these operators between stages and eliminates
        these costs") at the price of push-sync traffic.
        """
        if (
            self.config.partitioning != "balanced"
            or self.config.mirror_mode != "migrate"
        ):
            return 0.0
        bandwidth = self.cluster.spec.network_bandwidth_bytes_per_ms
        latency = self.cluster.spec.network_latency_ms
        delay = 0.0
        for layer in layers:
            location = self._layer_location.get(layer)
            if location is None:
                location = self._home_stage(layer)
            if location != stage:
                delay += (
                    self.supernet.profile(layer).param_bytes / bandwidth + latency
                )
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
        profile = self.supernet.profile
        recompute = self.config.recompute
        stage_layers = tuple(
            run.subnet.layers_in_range(start, stop)
            for start, stop in run.partition
        )
        fwd_ms: List[float] = []
        bwd_ms: List[float] = []
        boundary: List[int] = []
        for layers in stage_layers:
            fwd = 0.0
            bwd = 0.0
            for layer in layers:
                p = profile(layer)
                fwd += p.fwd_ms_ref
                bwd += p.bwd_ms_ref
                if recompute:
                    bwd += p.fwd_ms_ref  # checkpoint re-forward
            fwd_ms.append(fwd)
            bwd_ms.append(bwd)
            boundary.append(
                profile(layers[-1]).activation_bytes_per_sample * self.batch
                if layers
                else 0
            )
        run.stage_layers = stage_layers
        run.fwd_ms = tuple(fwd_ms)
        run.bwd_ms = tuple(bwd_ms)
        run.boundary_bytes = tuple(boundary)

    def _task_duration_ms(self, subnet_id: int, stage: int, is_backward: bool) -> float:
        run = self.runs[subnet_id]
        base = run.bwd_ms[stage] if is_backward else run.fwd_ms[stage]
        return base * self._batch_scale * self.cluster.spec.speed_factor(stage)

    def _begin_task(
        self, stage: int, subnet_id: int, is_backward: bool,
        retrying: bool = False,
    ) -> None:
        now = self.sim.now
        self._stage_busy[stage] = True
        if stage == 0 and not is_backward and subnet_id not in self.started:
            self.started.add(subnet_id)
            self._active_started += 1
        layers = self.stage_layers(subnet_id, stage)
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
                label=f"oom-retry SN{subnet_id}@P{stage}",
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
                    label=f"task-retry SN{subnet_id}@P{stage}",
                )
                return
        start = now
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
        duration = self._task_duration_ms(subnet_id, stage, is_backward)
        self._last_was_backward[stage] = is_backward
        kind = "bwd" if is_backward else "fwd"
        self.trace.record_interval(stage, start, start + duration, kind, subnet_id)
        attrs = (_DIRECTION[is_backward], ("start", start), ("end", start + duration))
        self.trace.append_event("task_dispatch", now, stage, subnet_id, attrs)
        self.sim.schedule(
            start + duration,
            lambda: self._on_task_done(stage, subnet_id, is_backward),
            label=f"SN{subnet_id}.{kind}@P{stage}",
        )

    def _record_transfer(
        self, stage: int, subnet_id: int, dst: int, nbytes: int, arrival: float,
        is_backward: bool,
    ) -> None:
        attrs = (
            ("src", stage),
            ("dst", dst),
            ("nbytes", nbytes),
            ("arrive", arrival),
            _DIRECTION[is_backward],
        )
        self.trace.append_event(
            "nic_transfer", self.sim.now, stage, subnet_id, attrs
        )


# -- analytic bubble fractions --------------------------------------------
def gpipe_theory_bubble(stages: int, bulk: int) -> float:
    """Idle fraction of a BSP pipeline round (fill + drain overhead):
    each of ``stages`` stages computes for ``bulk`` slots of a
    ``bulk + stages - 1`` slot round — the closed form behind GPipe's
    Table 2 "Bub." cells (§5.1, the paper's constant 0.57 at 8 GPUs)."""
    if stages < 1 or bulk < 1:
        raise ValueError("stages and bulk must be positive")
    return (stages - 1) / (bulk + stages - 1)


def pipeline_theory_bubble(stages: int, in_flight: int) -> float:
    """Idle fraction of a continuously fed pipeline with a bounded
    in-flight window: zero once the window covers the depth, otherwise
    the under-fill fraction (Figure 7's depth discussion, §5.4)."""
    if stages < 1 or in_flight < 1:
        raise ValueError("stages and in_flight must be positive")
    if in_flight >= stages:
        return 0.0
    return 1.0 - in_flight / stages
