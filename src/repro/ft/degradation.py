"""Graceful degradation: health monitoring + deterministic mitigation.

PR 3 made non-fatal faults (``nic_degrade``, ``copy_stall``,
``task_error``) *survivable*; this module makes them *cheap*.  A
:class:`HealthMonitor` consumes the engine's typed trace-event stream —
task dispatches, NIC transfers, fetch stalls — and maintains per-stage
and per-link EWMA estimates with hysteresis, classifying stages as
healthy / straggler, copy engines as nominal / stalled, and links as
nominal / degraded.  Everything is driven by the virtual clock, so
detection is a pure deterministic function of the run.

On a status transition the :class:`DegradationManager` applies
mitigations at safe decision points:

* **adaptive admission control** — shrink the effective in-flight
  window (backpressure) while any *link or copy engine* is unhealthy,
  via ``PipelineEngine.admission_cap`` which the policy admission hooks
  consult (BSP is exempt: its bulk flush barrier owns admission;
  compute stragglers are handled by rebalancing, not backpressure);
* **prefetch throttling** — when a stage's copy engine is stalled,
  suppress speculative predictor prefetches on that stage so demand
  fetches own the copy engine;
* **deterministic straggler rebalancing** — give a persistently slow
  stage a cost *weight*; the next subnet's balanced partition shifts
  layer boundaries away from it (replicas materialise through the
  mirror registry exactly as for any off-home assignment).

Why this is digest-safe: under CSP the final weights are a pure
function of the subnet stream (Definition 1/2) — admission windows,
prefetch cadence and partition shapes change *timing only*.  Every
mitigation lands in ``PipelineResult.mitigation_actions`` and the run
manifest, so ``replay.py`` reproduces the same mitigation sequence
bitwise.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError

__all__ = ["HealthMonitor", "DegradationManager"]

#: status labels, per scope
STAGE_HEALTHY, STAGE_STRAGGLER = "healthy", "straggler"
LINK_NOMINAL, LINK_DEGRADED = "nominal", "degraded"
COPY_NOMINAL, COPY_STALLED = "nominal", "stalled"

# Detection thresholds and mitigation constants.  Every mitigation is
# timing-only (see above), so none of them is a caller's choice.
#
# Ratios are relative to the profiled nominal: a stage's *speed ratio*
# is observed task duration over the slice's reference cost (so it
# estimates the stage's effective speed factor and is invariant under
# repartitioning — rebalancing away from a straggler must not make the
# straggler *look* healthy).  A link's *bandwidth ratio* is effective
# transfer bandwidth over the link's nominal bandwidth.  Hysteresis: a
# scope enters the unhealthy status at ``*_ENTER_*`` and only exits at
# the (stricter) ``*_EXIT_*`` threshold.

# -- detection ---------------------------------------------------------
EWMA_ALPHA = 0.25
MIN_SAMPLES = 4
STRAGGLER_ENTER_RATIO = 1.6
STRAGGLER_EXIT_RATIO = 1.25
#: link thresholds leave headroom below healthy queueing noise: the
#: effective-bandwidth estimate charges FIFO queueing to the link, so
#: healthy bursty traffic sits well under ratio 1.0 (measured EWMA
#: floor ~0.45 at 8 GPUs) while a 4x NIC degrade drives it to ~0.25
LINK_ENTER_RATIO = 0.3
LINK_EXIT_RATIO = 0.6
#: stall thresholds are stall-per-task *relative to the task's nominal
#: cost* — scale-invariant across GPU counts (absolute ms thresholds
#: cannot separate a healthy 2-GPU run, whose tasks and stalls are both
#: big, from a faulted 8-GPU run)
STALL_ENTER_RATIO = 0.5
STALL_EXIT_RATIO = 0.25
# -- mitigation --------------------------------------------------------
MIN_WINDOW = 2
WINDOW_SHRINK = 2
#: straggler weights snap to multiples of this (stability: tiny EWMA
#: drift must not produce a new partition every subnet)
WEIGHT_QUANTUM = 0.25
MAX_WEIGHT = 4.0


class HealthMonitor:
    """EWMA + hysteresis classifier over the typed trace-event stream.

    Attach :meth:`observe` as a trace listener.  Three independent
    estimators run per scope:

    * ``("stage", s)`` — speed ratio from ``task_dispatch`` (duration
      over the slice's profiled reference cost);
    * ``("link", l)`` — effective-bandwidth ratio from ``nic_transfer``
      (queueing counts against the link: a congested link *is* slow);
    * ``("copy", s)`` — fetch-stall time per task over the stage's
      *mean* nominal task cost (an EWMA of the same horizon — a burst of
      stall in front of one tiny slice must not read as a stalled copy
      engine), mixing a zero sample at every dispatch so cold-start
      stalls decay instead of pinning the estimate high.

    ``on_transition(scope, index, status, metric, reference)`` fires
    exactly on status changes (after :data:`MIN_SAMPLES` observations).
    """

    #: kinds the monitor itself (indirectly) emits — skipped to keep the
    #: listener re-entrant under ``record_event`` recursion
    IGNORED_KINDS = frozenset({"health_report", "mitigation_apply", "rebalance"})

    def __init__(
        self,
        *,
        slice_cost_fn: Callable[[int, int, str], float],
        link_params_fn: Callable[[int], Tuple[float, float]],
        on_transition: Callable[[str, int, str, float, float], None],
    ) -> None:
        self._slice_cost = slice_cost_fn
        self._link_params = link_params_fn
        self._notify = on_transition
        self._ewma: Dict[Tuple[str, int], Tuple[float, int]] = {}
        self._pending_stall: Dict[int, float] = {}
        self._mean_cost: Dict[int, float] = {}
        self.status: Dict[Tuple[str, int], str] = {}

    # ------------------------------------------------------------------
    def observe(self, event) -> None:
        kind = event.kind
        if kind in self.IGNORED_KINDS:
            return
        if kind == "task_dispatch":
            self._on_task(event)
        elif kind == "fetch_stall":
            stage = event.stage
            self._pending_stall[stage] = self._pending_stall.get(
                stage, 0.0
            ) + float(event.attr("wait_ms", 0.0))
        elif kind == "nic_transfer":
            self._on_transfer(event)

    # ------------------------------------------------------------------
    def _on_task(self, event) -> None:
        stage = event.stage
        attrs = event.attrs_dict
        duration = float(attrs["end"]) - float(attrs["start"])
        nominal = self._slice_cost(stage, event.subnet_id, str(attrs["direction"]))
        stall = self._pending_stall.pop(stage, 0.0)
        if nominal > 0.0:
            self._update("stage", stage, duration / nominal)
            mean = self._mean_cost.get(stage)
            if mean is None:
                mean = nominal
            else:
                mean = EWMA_ALPHA * nominal + (1.0 - EWMA_ALPHA) * mean
            self._mean_cost[stage] = mean
            # one (possibly zero) stall sample per dispatch on this stage
            self._update("copy", stage, stall / mean)

    def _on_transfer(self, event) -> None:
        attrs = event.attrs_dict
        link = min(int(attrs["src"]), int(attrs["dst"]))
        nbytes = int(attrs["nbytes"])
        bandwidth, latency = self._link_params(link)
        elapsed = float(attrs["arrive"]) - event.time - latency
        if nbytes <= 0 or elapsed <= 0.0 or bandwidth <= 0.0:
            return
        self._update("link", link, (nbytes / elapsed) / bandwidth)

    # ------------------------------------------------------------------
    def _update(self, scope: str, index: int, sample: float) -> None:
        key = (scope, index)
        ewma, count = self._ewma.get(key, (0.0, 0))
        ewma = sample if count == 0 else EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * ewma
        self._ewma[key] = (ewma, count + 1)
        if count + 1 >= MIN_SAMPLES:
            self._classify(scope, index, ewma)

    def estimate(self, scope: str, index: int) -> Optional[float]:
        entry = self._ewma.get((scope, index))
        return entry[0] if entry is not None else None

    def _classify(self, scope: str, index: int, metric: float) -> None:
        if scope == "stage":
            healthy, unhealthy = STAGE_HEALTHY, STAGE_STRAGGLER
            enters = metric >= STRAGGLER_ENTER_RATIO
            exits = metric <= STRAGGLER_EXIT_RATIO
            reference = 1.0
        elif scope == "link":
            healthy, unhealthy = LINK_NOMINAL, LINK_DEGRADED
            enters = metric <= LINK_ENTER_RATIO
            exits = metric >= LINK_EXIT_RATIO
            reference = 1.0
        else:  # copy
            healthy, unhealthy = COPY_NOMINAL, COPY_STALLED
            enters = metric >= STALL_ENTER_RATIO
            exits = metric <= STALL_EXIT_RATIO
            reference = STALL_ENTER_RATIO
        key = (scope, index)
        current = self.status.get(key, healthy)
        if current != unhealthy and enters:
            self.status[key] = unhealthy
            self._notify(scope, index, unhealthy, metric, reference)
        elif current == unhealthy and exits:
            self.status[key] = healthy
            self._notify(scope, index, healthy, metric, reference)


class DegradationManager:
    """Binds a :class:`HealthMonitor` to one engine and applies
    mitigations on its transitions.

    One manager serves one engine run (it accumulates that run's
    ``actions``); recovery drivers build a fresh manager per attempt.
    """

    def __init__(self) -> None:
        self.engine = None
        self.monitor: Optional[HealthMonitor] = None
        #: chronological mitigation log — scalar-only dicts, JSON-stable,
        #: compared bitwise by ``verify_replay``
        self.actions: List[Dict[str, object]] = []
        self.stage_weights: Dict[int, float] = {}
        self._unhealthy: Set[Tuple[str, int]] = set()
        self._cap_active = False

    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        if self.engine is not None:
            raise ConfigError(
                "a DegradationManager serves one engine run; build a fresh "
                "one per attempt"
            )
        self.engine = engine
        self.monitor = HealthMonitor(
            slice_cost_fn=self._nominal_slice_ms,
            link_params_fn=lambda link: engine.cluster.spec.link_parameters(
                link, link + 1
            ),
            on_transition=self._on_transition,
        )
        engine.trace.listeners.append(self.monitor.observe)

    def _nominal_slice_ms(self, stage: int, subnet_id: int, direction: str) -> float:
        """Reference (speed-factor-1) duration of the dispatched slice —
        the denominator that makes the speed ratio partition-invariant."""
        engine = self.engine
        if subnet_id not in engine.runs:
            return 0.0
        total = 0.0
        for layer in engine.stage_layers(subnet_id, stage):
            profile = engine.supernet.profile(layer)
            if direction == "bwd":
                total += profile.bwd_ms_ref
                if engine.config.recompute:
                    total += profile.fwd_ms_ref
            else:
                total += profile.fwd_ms_ref
        return total * engine.supernet.batch_time_scale(engine.batch)

    # ------------------------------------------------------------------
    def partition_weights(self) -> Optional[List[float]]:
        """Per-stage cost weights for the next balanced partition, or
        None while every stage is nominal (the common fast path)."""
        if self.engine is None or not self.stage_weights:
            return None
        weights = [
            self.stage_weights.get(stage, 1.0)
            for stage in range(self.engine.stages)
        ]
        if all(weight == 1.0 for weight in weights):
            return None
        return weights

    # ------------------------------------------------------------------
    def _on_transition(
        self, scope: str, index: int, status: str, metric: float, reference: float
    ) -> None:
        engine = self.engine
        now = engine.sim.now
        engine.trace.record_event(
            "health_report",
            now,
            scope=scope,
            index=index,
            status=status,
            metric=float(metric),
            reference=float(reference),
        )
        key = (scope, index)
        if status in (STAGE_STRAGGLER, LINK_DEGRADED, COPY_STALLED):
            self._unhealthy.add(key)
        else:
            self._unhealthy.discard(key)
        self._update_admission(now)
        if scope == "copy":
            self._set_throttle(index, status == COPY_STALLED, now)
        if scope == "stage":
            self._set_weight(
                index, metric if status == STAGE_STRAGGLER else 1.0, now
            )

    def _record(
        self, action: str, target: int, value: float, active: bool, now: float
    ) -> None:
        self.actions.append(
            {
                "time_ms": float(now),
                "action": action,
                "target": int(target),
                "value": float(value),
                "active": bool(active),
            }
        )
        self.engine.trace.record_event(
            "mitigation_apply",
            now,
            action=action,
            target=int(target),
            value=float(value),
            active=bool(active),
        )

    # -- (a) adaptive admission control --------------------------------
    def _update_admission(self, now: float) -> None:
        engine = self.engine
        # Backpressure targets transient I/O contention (degraded links,
        # stalled copy engines): fewer in-flight subnets means less
        # traffic on the sick resource.  A compute straggler is NOT a
        # reason to cap admission — rebalancing fixes it, and shrinking
        # the window would just starve the healthy stages (measured:
        # capping on straggler transitions costs 1.5-4% makespan).
        want = any(scope != "stage" for scope, _ in self._unhealthy)
        if want and not self._cap_active:
            base = engine.policy.window
            cap = max(MIN_WINDOW, base - WINDOW_SHRINK)
            engine.admission_cap = cap
            self._cap_active = True
            self._record("admission_cap", -1, float(cap), True, now)
        elif not want and self._cap_active:
            engine.admission_cap = None
            self._cap_active = False
            self._record("admission_cap", -1, 0.0, False, now)

    # -- (b) prefetch throttling ---------------------------------------
    def _set_throttle(self, stage: int, throttled: bool, now: float) -> None:
        contexts = self.engine.contexts
        if contexts is None or not (0 <= stage < len(contexts)):
            return
        if contexts[stage].throttled == throttled:
            return
        contexts[stage].throttled = throttled
        self._record(
            "prefetch_throttle", stage, 1.0 if throttled else 0.0, throttled, now
        )

    # -- (c) deterministic straggler rebalancing -----------------------
    def _set_weight(self, stage: int, weight: float, now: float) -> None:
        snapped = round(weight / WEIGHT_QUANTUM) * WEIGHT_QUANTUM
        snapped = min(MAX_WEIGHT, max(1.0, snapped))
        if self.stage_weights.get(stage, 1.0) == snapped:
            return
        self.stage_weights[stage] = snapped
        self.engine.trace.record_event(
            "rebalance", now, stage=stage, weight=snapped
        )
        self._record("rebalance", stage, snapped, snapped != 1.0, now)
