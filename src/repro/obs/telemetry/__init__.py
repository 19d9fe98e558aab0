"""The online telemetry plane: live metrics, alerts, usage metering.

``repro.obs`` explains a run after the fact; this package watches it
happen.  A :class:`TelemetryHub` bundles the four tentpole pieces —

* :class:`~repro.obs.telemetry.registry.MetricsRegistry` — typed
  Counter/Gauge/Histogram instruments with fixed shapes;
* :class:`~repro.obs.telemetry.scraper.Scraper` — a scrape loop running
  as first-class sim events on the plane's virtual clock;
* :class:`~repro.obs.telemetry.alerts.AlertEngine` — threshold /
  ``for_ms`` / multi-window burn-rate rules evaluated at scrape points;
* :class:`~repro.obs.telemetry.metering.UsageMeter` — per-tenant usage
  reconciled against :class:`~repro.service.manager.ClusterManager`
  lease lifetimes —

and wires them into the planes purely through observation hooks: trace-
event listeners, the manager's usage observer, and a handful of direct
calls at points where the needed value (a request latency) is not in
any event.  Nothing here feeds back into scheduling, so arming a hub
leaves digests, traces of decisions, and reports bitwise unchanged.

See ``docs/TELEMETRY.md`` for the instrument catalog and semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.telemetry.alerts import (
    DEFAULT_RULES,
    AlertEngine,
    AlertRule,
    load_rules,
)
from repro.obs.telemetry.metering import UsageMeter
from repro.obs.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.telemetry.scraper import Scraper

__all__ = [
    "TelemetryHub",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Scraper",
    "AlertRule",
    "AlertEngine",
    "load_rules",
    "DEFAULT_RULES",
    "UsageMeter",
    "render_prometheus",
    "replay_telemetry",
]

from repro.serving.metrics import DEFAULT_LATENCY_BUCKETS_MS

#: serving latency histogram bounds (virtual ms) — the scenario-report
#: histogram in ``repro.serving.metrics`` uses the same edges, so online
#: and post-hoc views bucket identically
LATENCY_BUCKETS_MS = DEFAULT_LATENCY_BUCKETS_MS

#: batch occupancy bounds (requests per formed batch)
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


class TelemetryHub:
    """One hub observes one run (any mix of planes sharing it)."""

    def __init__(
        self,
        scrape_interval_ms: float = 100.0,
        rules=None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.scraper = Scraper(self.registry, scrape_interval_ms)
        self.meter = UsageMeter()
        self.alerts = AlertEngine(load_rules(rules))
        self._job_status: Dict[str, str] = {}
        self._slo_ms: Optional[float] = None
        #: the last-attached manager (metering reconciliation target)
        self.manager = None

    # ------------------------------------------------------------------
    # generic attach points
    # ------------------------------------------------------------------
    def attach_trace(self, trace) -> None:
        """Subscribe to a plane's trace events (synchronous listener —
        the zero-timing-impact hook every plane already exposes)."""
        trace.listeners.append(self.on_event)

    def attach_sim(self, sim) -> None:
        """Arm the scrape loop on a plane's simulation engine."""
        self.scraper.attach(sim)

    def attach_manager(self, manager) -> None:
        """Observe lease lifecycle + fleet slot-state transitions."""
        self.manager = manager
        manager.usage_observer = self._on_manager_usage
        self._sample_fleet(manager)

    # ------------------------------------------------------------------
    # plane-specific wiring
    # ------------------------------------------------------------------
    def attach_engine(self, engine) -> None:
        """Wire a :class:`~repro.engines.pipeline.PipelineEngine`."""
        self.attach_trace(engine.trace)
        self.attach_sim(engine.sim)

    def attach_service(self, scheduler) -> None:
        """Wire a :class:`~repro.service.scheduler.JobScheduler` (and
        its manager)."""
        self.attach_trace(scheduler.trace)
        self.attach_sim(scheduler.sim)
        self.attach_manager(scheduler.manager)

    def attach_serving(self, serving) -> None:
        """Wire a :class:`~repro.serving.frontend.ServingEngine` (and
        its manager).  The engine also makes direct
        :meth:`on_serving_complete` calls at completion points, where
        the latency is not carried by any trace event."""
        self._slo_ms = serving.spec.slo_ms
        self.attach_trace(serving.trace)
        self.attach_sim(serving.sim)
        self.attach_manager(serving.manager)

    # ------------------------------------------------------------------
    # manager usage observer
    # ------------------------------------------------------------------
    def _on_manager_usage(
        self, kind: str, job: str, lease_id: int, slot: int, now: float,
        cause: str, manager,
    ) -> None:
        self.meter.on_usage(kind, job, lease_id, slot, now, cause)
        self._sample_fleet(manager)

    def _sample_fleet(self, manager) -> None:
        self.registry.gauge("fleet_free_slots", "slots in the free pool").set(
            manager.available_gpus
        )
        self.registry.gauge("fleet_leased_slots", "slots under live leases").set(
            manager.leased_gpus
        )
        self.registry.gauge("fleet_down_slots", "slots out of service").set(
            len(manager.down_slots())
        )
        self.registry.counter(
            "fleet_leases_granted_total", "leases granted"
        ).inc(
            max(
                0.0,
                manager.total_leases_granted
                - self.registry.get("fleet_leases_granted_total").value(),
            )
        )
        self.registry.counter(
            "fleet_revocations_total", "lease revocations"
        ).inc(
            max(
                0.0,
                manager.total_revocations
                - self.registry.get("fleet_revocations_total").value(),
            )
        )

    # ------------------------------------------------------------------
    # the trace-event listener (all planes)
    # ------------------------------------------------------------------
    def on_event(self, event) -> None:
        kind = event.kind
        handler = _HANDLERS.get(kind)
        if handler is not None:
            handler(self, event)

    # -- engine plane --------------------------------------------------
    def _on_task_dispatch(self, event) -> None:
        attrs = event.attrs_dict
        direction = str(attrs.get("direction", "?"))
        self.registry.counter(
            "engine_tasks_total", "tasks dispatched", labels=("stage", "direction")
        ).inc(1.0, stage=event.stage, direction=direction)
        self.registry.counter(
            "engine_busy_ms_total", "compute ms", labels=("stage", "direction")
        ).inc(
            float(attrs.get("end", 0.0)) - float(attrs.get("start", 0.0)),
            stage=event.stage,
            direction=direction,
        )

    def _on_fetch_stall(self, event) -> None:
        self.registry.counter(
            "engine_stall_ms_total", "fetch-stall ms", labels=("stage",)
        ).inc(float(event.attrs_dict.get("wait_ms", 0.0)), stage=event.stage)

    def _on_queue_depth(self, event) -> None:
        attrs = event.attrs_dict
        self.registry.gauge(
            "engine_queue_depth", "stage L_q + backward-ready depth",
            labels=("stage",),
        ).set(
            int(attrs.get("fwd", 0)) + int(attrs.get("bwd", 0)),
            stage=event.stage,
        )

    def _on_ready_set(self, event) -> None:
        self.registry.gauge(
            "engine_ready_set", "CSP readiness-index size", labels=("stage",)
        ).set(int(event.attrs_dict.get("size", 0)), stage=event.stage)

    def _on_cache_access(self, event) -> None:
        attrs = event.attrs_dict
        self.registry.counter(
            "engine_cache_hits_total", "resident layer hits", labels=("stage",)
        ).inc(int(attrs.get("hits", 0)), stage=event.stage)
        self.registry.counter(
            "engine_cache_misses_total", "layer misses", labels=("stage",)
        ).inc(int(attrs.get("misses", 0)), stage=event.stage)

    def _on_prefetch_issue(self, event) -> None:
        self.registry.gauge(
            "engine_prefetch_inflight", "prefetches issued, not landed",
            labels=("stage",),
        ).add(1.0, stage=event.stage)

    def _on_prefetch_land(self, event) -> None:
        self.registry.gauge(
            "engine_prefetch_inflight", "prefetches issued, not landed",
            labels=("stage",),
        ).add(-1.0, stage=event.stage)

    def _on_subnet_complete(self, event) -> None:
        self.registry.counter(
            "engine_subnets_completed_total", "subnets fully trained"
        ).inc()

    # -- service plane -------------------------------------------------
    def _set_job_status(self, job: str, status: str) -> None:
        self._job_status[job] = status
        queued = sum(1 for s in self._job_status.values() if s == "queued")
        running = sum(1 for s in self._job_status.values() if s == "running")
        failed = sum(1 for s in self._job_status.values() if s == "failed")
        self.registry.gauge("service_jobs_queued", "tenants awaiting GPUs").set(queued)
        self.registry.gauge("service_jobs_running", "tenants on GPUs").set(running)
        self.registry.gauge("service_jobs_failed", "tenants failed closed").set(failed)

    def _alloc_gauge(self) -> Gauge:
        return self.registry.gauge(
            "service_allocated_gpus", "GPUs allocated", labels=("job",)
        )

    def _on_job_submit(self, event) -> None:
        self._set_job_status(str(event.attrs_dict.get("job", "?")), "queued")

    def _on_job_start(self, event) -> None:
        attrs = event.attrs_dict
        job = str(attrs.get("job", "?"))
        self._set_job_status(job, "running")
        self._alloc_gauge().set(int(attrs.get("gpus", 0)), job=job)

    def _on_job_resize(self, event) -> None:
        attrs = event.attrs_dict
        self._alloc_gauge().set(
            int(attrs.get("gpus_to", 0)), job=str(attrs.get("job", "?"))
        )

    def _on_job_preempt(self, event) -> None:
        job = str(event.attrs_dict.get("job", "?"))
        self._set_job_status(job, "queued")
        self._alloc_gauge().set(0, job=job)
        self.registry.counter(
            "service_preemptions_total", "jobs squeezed out at a cut",
            labels=("job",),
        ).inc(1.0, job=job)
        self.meter.bump(job, "preemptions")

    def _on_job_requeue(self, event) -> None:
        job = str(event.attrs_dict.get("job", "?"))
        self._set_job_status(job, "queued")
        self._alloc_gauge().set(0, job=job)
        self.registry.counter(
            "service_requeues_total", "rigid restarts after revocation",
            labels=("job",),
        ).inc(1.0, job=job)
        self.meter.bump(job, "requeues")

    def _on_job_done(self, event) -> None:
        attrs = event.attrs_dict
        job = str(attrs.get("job", "?"))
        self._set_job_status(job, "done")
        self._alloc_gauge().set(0, job=job)
        self.registry.counter(
            "service_queue_wait_ms_total", "submit-to-first-start wait",
            labels=("job",),
        ).inc(float(attrs.get("wait_ms", 0.0)), job=job)
        self.meter.bump(job, "subnets_completed", float(attrs.get("subnets", 0)))

    def _on_job_failed(self, event) -> None:
        job = str(event.attrs_dict.get("job", "?"))
        self._set_job_status(job, "failed")
        self._alloc_gauge().set(0, job=job)

    def _on_lease_revoke(self, event) -> None:
        self.registry.counter(
            "plane_lease_revocations_total", "revocations seen by the plane",
            labels=("job",),
        ).inc(1.0, job=str(event.attrs_dict.get("job", "?")))

    # -- serving plane -------------------------------------------------
    def _on_request_arrive(self, event) -> None:
        self.registry.counter("serving_requests_total", "requests arrived").inc()

    def _on_request_admit(self, event) -> None:
        self.registry.counter(
            "serving_requests_admitted_total", "requests admitted"
        ).inc()
        self.registry.gauge(
            "serving_queue_depth", "batcher depth + in-flight backlog"
        ).set(int(event.attrs_dict.get("queue_depth", 0)))
        self.meter.bump("serving", "requests_admitted")

    def _on_request_shed(self, event) -> None:
        self.registry.counter(
            "serving_requests_shed_total", "requests shed at admission"
        ).inc()
        self.registry.gauge(
            "serving_queue_depth", "batcher depth + in-flight backlog"
        ).set(int(event.attrs_dict.get("queue_depth", 0)))
        self.registry.counter(
            "serving_slo_bad_total", "SLO-relevant bad outcomes"
        ).inc()
        self.meter.bump("serving", "requests_shed")

    def _on_request_retry(self, event) -> None:
        self.registry.counter(
            "serving_retries_total", "requests re-queued by revocation"
        ).inc()
        self.registry.counter(
            "serving_slo_bad_total", "SLO-relevant bad outcomes"
        ).inc()
        self.meter.bump("serving", "requests_retried")

    def _on_batch_form(self, event) -> None:
        attrs = event.attrs_dict
        self.registry.counter("serving_batches_total", "batches formed").inc()
        self.registry.histogram(
            "serving_batch_occupancy", "requests per formed batch",
            buckets=BATCH_BUCKETS,
        ).observe(int(attrs.get("size", 0)))

    def _on_cache_hit(self, event) -> None:
        self.registry.counter(
            "serving_cache_hits_total", "cache hits", labels=("tier",)
        ).inc(1.0, tier=str(event.attrs_dict.get("tier", "?")))

    def _on_cache_miss(self, event) -> None:
        self.registry.counter(
            "serving_cache_misses_total", "cache misses", labels=("tier",)
        ).inc(1.0, tier=str(event.attrs_dict.get("tier", "?")))

    # -- direct serving completion hook --------------------------------
    def on_serving_complete(self, latency_ms: float, retries: int) -> None:
        """Called by the serving engine when a request's result is
        final (batch completion or cache hit) — the point where its
        latency exists.  Updates the latency histogram and the SLO
        good/bad counters the burn-rate rules watch."""
        self.registry.histogram(
            "serving_latency_ms", "request latency", buckets=LATENCY_BUCKETS_MS
        ).observe(latency_ms)
        good = self._slo_ms is None or latency_ms <= self._slo_ms
        if good and retries == 0:
            self.registry.counter(
                "serving_slo_good_total", "fresh requests inside the SLO"
            ).inc()
        else:
            self.registry.counter(
                "serving_slo_bad_total", "SLO-relevant bad outcomes"
            ).inc()

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def finalize(self, now: float) -> None:
        self.scraper.finalize(now)

    def alert_report(self) -> Dict:
        return self.alerts.report(self.scraper.samples)

    def metering_report(self, manager=None) -> Dict:
        return self.meter.report(manager if manager is not None else self.manager)

    def peak_queue_depth(self) -> float:
        peak = 0.0
        for name in ("engine_queue_depth", "serving_queue_depth"):
            gauge = self.registry.get(name)
            if gauge is not None:
                peak = max(peak, gauge.peak())
        return peak

    def compact_block(self, manager=None) -> Dict:
        """The ``telemetry`` block registry records carry: small, flat,
        diffable by ``naspipe compare``."""
        alert_log = self.alert_report()
        return {
            "schema": 1,
            "scrapes": len(self.scraper.samples),
            "peak_queue_depth": self.peak_queue_depth(),
            "alerts_fired": alert_log["firings"],
            "gpu_slot_ms": self.meter.tenant_gpu_slot_ms(),
        }


_HANDLERS = {
    "task_dispatch": TelemetryHub._on_task_dispatch,
    "fetch_stall": TelemetryHub._on_fetch_stall,
    "queue_depth": TelemetryHub._on_queue_depth,
    "ready_set": TelemetryHub._on_ready_set,
    "cache_access": TelemetryHub._on_cache_access,
    "prefetch_issue": TelemetryHub._on_prefetch_issue,
    "prefetch_land": TelemetryHub._on_prefetch_land,
    "subnet_complete": TelemetryHub._on_subnet_complete,
    "job_submit": TelemetryHub._on_job_submit,
    "job_start": TelemetryHub._on_job_start,
    "job_resize": TelemetryHub._on_job_resize,
    "job_preempt": TelemetryHub._on_job_preempt,
    "job_requeue": TelemetryHub._on_job_requeue,
    "job_done": TelemetryHub._on_job_done,
    "job_failed": TelemetryHub._on_job_failed,
    "lease_revoke": TelemetryHub._on_lease_revoke,
    "request_arrive": TelemetryHub._on_request_arrive,
    "request_admit": TelemetryHub._on_request_admit,
    "request_shed": TelemetryHub._on_request_shed,
    "request_retry": TelemetryHub._on_request_retry,
    "batch_form": TelemetryHub._on_batch_form,
    "cache_hit": TelemetryHub._on_cache_hit,
    "cache_miss": TelemetryHub._on_cache_miss,
}


def replay_telemetry(trace, rules=None) -> TelemetryHub:
    """Build a hub post-hoc by replaying a finished trace's events
    through the listener — how :meth:`PipelineResult.telemetry` derives
    the compact block without having armed live scraping.  Identical
    instrument state to a live listener (the listener is a pure function
    of the event stream); the scrape series contains only the final
    sample."""
    hub = TelemetryHub(rules=rules)
    for event in trace.events_of(*_HANDLERS):
        hub.on_event(event)
    hub.finalize(trace.end_time)
    return hub
