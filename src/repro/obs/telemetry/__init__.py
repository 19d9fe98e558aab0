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

import collections
import heapq
import operator
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError

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

#: feed sources that are not trace kinds — what the hub derives or is
#: told directly: the manager's slot pools at every usage callback, the
#: head-count per status after a ``job_*`` transition, the verdict on a
#: request whose result is final (:meth:`on_serving_complete`), and each
#: copy a ``prefetch_issue`` started whose ``land`` time a scrape passed
FLEET, JOBS = "fleet sample", "job population"
SLO_GOOD, SLO_BAD = "slo good", "slo bad"
LANDED = "copy landed"


def _busy_ms(attrs) -> float:
    return attrs["end"] - attrs["start"]


def _queued(attrs) -> int:
    return attrs["fwd"] + attrs["bwd"]


def _row(kind: str, labels: tuple, help: str, *feeds: tuple, buckets=None) -> tuple:
    """One :data:`INSTRUMENTS` row, its feeds gathered into one field."""
    return (kind, labels, help, feeds) + ((buckets,) if buckets else ())


#: Every instrument the hub owns, declared once: name -> (type, label
#: names, help, feeds[, histogram buckets]).  A feed is ``(source, op,
#: amount)``: on a trace event of kind ``source`` (or one of the derived
#: sources above) call the instrument's ``op`` with ``amount`` — an attr
#: name, a function of the attrs, or a constant.  A label's value is the
#: attr of the same name (``stage``: the event's stage, which no kind
#: also carries as an attr).  ``docs/TELEMETRY.md``'s catalog is
#: generated from this table (``tools/telemetry_catalog.py``).
INSTRUMENTS: Dict[str, tuple] = {
    # -- engine plane --------------------------------------------------
    "engine_tasks_total": _row(
        "counter", ("stage", "direction"), "tasks dispatched",
        ("task_dispatch", "inc", 1.0),
    ),
    "engine_busy_ms_total": _row(
        "counter", ("stage", "direction"), "compute ms",
        ("task_dispatch", "inc", _busy_ms),
    ),
    "engine_stall_ms_total": _row(
        "counter", ("stage",), "fetch-stall ms", ("fetch_stall", "inc", "wait_ms"),
    ),
    "engine_queue_depth": _row(
        "gauge", ("stage",), "stage L_q + backward-ready depth",
        ("queue_depth", "set", _queued),
    ),
    "engine_ready_set": _row(
        "gauge", ("stage",), "CSP readiness-index size", ("ready_set", "set", "size"),
    ),
    "engine_cache_hits_total": _row(
        "counter", ("stage",), "resident layer hits", ("cache_access", "inc", "hits"),
    ),
    "engine_cache_misses_total": _row(
        "counter", ("stage",), "layer misses", ("cache_access", "inc", "misses"),
    ),
    "engine_prefetch_inflight": _row(
        "gauge", ("stage",), "prefetches issued, not landed",
        ("prefetch_issue", "add", 1.0), (LANDED, "add", -1.0),
    ),
    "engine_subnets_completed_total": _row(
        "counter", (), "subnets fully trained", ("subnet_complete", "inc", 1.0),
    ),
    # -- service plane -------------------------------------------------
    "service_jobs_queued": _row(
        "gauge", (), "tenants awaiting GPUs", (JOBS, "set", "queued"),
    ),
    "service_jobs_running": _row(
        "gauge", (), "tenants on GPUs", (JOBS, "set", "running"),
    ),
    "service_jobs_failed": _row(
        "gauge", (), "tenants failed closed", (JOBS, "set", "failed"),
    ),
    "service_allocated_gpus": _row(
        "gauge", ("job",), "GPUs allocated",
        ("job_start", "set", "gpus"),
        ("job_resize", "set", "gpus_to"),
        ("job_preempt", "set", 0),
        ("job_requeue", "set", 0),
        ("job_done", "set", 0),
        ("job_failed", "set", 0),
    ),
    "service_preemptions_total": _row(
        "counter", ("job",), "jobs squeezed out at a cut", ("job_preempt", "inc", 1.0),
    ),
    "service_requeues_total": _row(
        "counter", ("job",), "rigid restarts after revocation",
        ("job_requeue", "inc", 1.0),
    ),
    "service_queue_wait_ms_total": _row(
        "counter", ("job",), "submit-to-first-start wait",
        ("job_done", "inc", "wait_ms"),
    ),
    "plane_lease_revocations_total": _row(
        "counter", ("job",), "revocations seen by the plane",
        ("lease_revoke", "inc", 1.0),
    ),
    # -- the shared manager ---------------------------------------------
    "fleet_free_slots": _row(
        "gauge", (), "slots in the free pool", (FLEET, "set", "free"),
    ),
    "fleet_leased_slots": _row(
        "gauge", (), "slots under live leases", (FLEET, "set", "leased"),
    ),
    "fleet_down_slots": _row(
        "gauge", (), "slots out of service", (FLEET, "set", "down"),
    ),
    "fleet_leases_granted_total": _row(
        "counter", (), "leases granted", (FLEET, "inc_to", "granted"),
    ),
    "fleet_revocations_total": _row(
        "counter", (), "lease revocations", (FLEET, "inc_to", "revoked"),
    ),
    # -- serving plane -------------------------------------------------
    "serving_requests_total": _row(
        "counter", (), "requests arrived", ("request_arrive", "inc", 1.0),
    ),
    "serving_requests_admitted_total": _row(
        "counter", (), "requests admitted", ("request_admit", "inc", 1.0),
    ),
    "serving_requests_shed_total": _row(
        "counter", (), "requests shed at admission", ("request_shed", "inc", 1.0),
    ),
    "serving_retries_total": _row(
        "counter", (), "requests re-queued by revocation",
        ("request_retry", "inc", 1.0),
    ),
    "serving_queue_depth": _row(
        "gauge", (), "batcher depth + in-flight backlog",
        ("request_admit", "set", "queue_depth"), ("request_shed", "set", "queue_depth"),
    ),
    "serving_batches_total": _row(
        "counter", (), "batches formed", ("batch_form", "inc", 1.0),
    ),
    "serving_batch_occupancy": _row(
        "histogram", (), "requests per formed batch",
        ("batch_form", "observe", "size"), buckets=BATCH_BUCKETS,
    ),
    "serving_cache_hits_total": _row(
        "counter", ("tier",), "cache hits", ("cache_hit", "inc", 1.0),
    ),
    "serving_cache_misses_total": _row(
        "counter", ("tier",), "cache misses", ("cache_miss", "inc", 1.0),
    ),
    "serving_latency_ms": _row(
        "histogram", (), "request latency",
        (SLO_GOOD, "observe", "latency_ms"),
        (SLO_BAD, "observe", "latency_ms"),
        buckets=LATENCY_BUCKETS_MS,
    ),
    "serving_slo_good_total": _row(
        "counter", (), "fresh requests inside the SLO", (SLO_GOOD, "inc", 1.0),
    ),
    "serving_slo_bad_total": _row(
        "counter", (), "SLO-relevant bad outcomes",
        (SLO_BAD, "inc", 1.0),
        ("request_shed", "inc", 1.0),
        ("request_retry", "inc", 1.0),
    ),
}

#: the status a job enters on each transition kind (``job_resize``
#: changes an allocation, not a status)
_JOB_STATUS = {
    "job_submit": "queued",
    "job_start": "running",
    "job_preempt": "queued",
    "job_requeue": "queued",
    "job_done": "done",
    "job_failed": "failed",
}

#: kind -> (usage counter, amount): the activity the meter bills beside
#: slot time — to the event's ``job``, or to the serving tenant for the
#: request kinds, which carry none
_METERED = {
    "job_preempt": ("preemptions", 1.0),
    "job_requeue": ("requeues", 1.0),
    "job_done": ("subnets_completed", "subnets"),
    "request_admit": ("requests_admitted", 1.0),
    "request_shed": ("requests_shed", 1.0),
    "request_retry": ("requests_retried", 1.0),
}


def _read_table():
    """:data:`INSTRUMENTS` the two ways the hub looks things up: the
    kind table — source -> the ``(instrument, op, amount)`` updates one
    event of it makes, an attr-name amount already the function that
    reads it — and every series name a scrape can carry -> its labels."""
    feeds: Dict[str, List[tuple]] = {kind: [] for kind in _JOB_STATUS}
    series: Dict[str, tuple] = {}
    for name, (kind, labels, _, declared, *_) in INSTRUMENTS.items():
        for source, op, amount in declared:
            if isinstance(amount, str):
                amount = operator.itemgetter(amount)
            feeds.setdefault(source, []).append((name, op, amount))
        if kind == "histogram":
            series[f"{name}_bucket"] = labels + ("le",)
            series[f"{name}_sum"] = series[f"{name}_count"] = labels
        else:
            series[name] = labels
    return feeds, series


_FEEDS, _SERIES = _read_table()


def _check_rule(rule: AlertRule) -> None:
    """A rule over a series no scrape carries would be accepted and
    silently never fire (``AlertRule.active_at`` reads a missing key as
    0.0): reject a name outside :data:`INSTRUMENTS`, and a labelled
    series named without a ``{label="…"}`` selector (or the reverse)."""
    watched = (rule.metric,) if rule.kind == "threshold" else (rule.good, rule.bad)
    for series in watched:
        name, selector, _ = series.partition("{")
        labels = _SERIES.get(name)
        if labels is None:
            raise ConfigError(
                f"alert rule {rule.name!r}: no telemetry instrument samples "
                f"{series!r} (docs/TELEMETRY.md lists them; a histogram is "
                f"sampled as its _bucket, _sum and _count series)"
            )
        if bool(selector) != bool(labels):
            raise ConfigError(
                f"alert rule {rule.name!r}: {series!r} can never match — "
                f"{name} is sampled with labels {labels}, one series each"
            )


class TelemetryHub:
    """One hub observes one run (any mix of planes sharing it)."""

    def __init__(
        self,
        scrape_interval_ms: float = 100.0,
        rules=None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.scraper = Scraper(self.registry, scrape_interval_ms, settle=self._land)
        self.meter = UsageMeter()
        self.alerts = AlertEngine(load_rules(rules))
        for rule in self.alerts.rules:
            _check_rule(rule)
        self._job_status: Dict[str, str] = {}
        #: source -> [(bound key-taking instrument op, amount, label names)]
        self._updates: Dict[str, List[tuple]] = {}
        self._slo_ms: Optional[float] = None
        #: (land time, stage) of every copy issued and not yet retired
        self._landing: List[Tuple[float, int]] = []
        #: the last-attached manager (metering reconciliation target)
        self.manager = None

    def attach(self, trace, sim, manager=None, slo_ms=None) -> None:
        """Wire one plane, through hooks it already exposes: listen to
        its trace (a synchronous listener — zero timing impact), scrape
        on its simulation clock, and, when it leases from a ``manager``,
        observe lease lifecycle + fleet slot-state transitions.  A
        serving plane passes its ``slo_ms`` and also calls
        :meth:`on_serving_complete` directly, where a latency exists
        that no trace event carries."""
        if slo_ms is not None:
            self._slo_ms = slo_ms
        trace.listeners.append(self.on_event)
        self.scraper.attach(sim)
        if manager is not None:
            self.manager = manager
            manager.usage_observer = self._on_manager_usage
            self._sample_fleet(manager)

    # ------------------------------------------------------------------
    # the four sources: manager callbacks, trace events, job
    # transitions, serving completions
    # ------------------------------------------------------------------
    def _update(self, source: str, attrs) -> None:
        """Apply every feed of ``source``.  Its instruments are
        registered from :data:`INSTRUMENTS` the first time the source
        fires and their key-taking ops (``_inc``, ``_set``, …) bound, so
        an instrument no source touched never reaches a snapshot or
        exposition.  A series key is the attrs named by the row's labels
        — the labels the instrument was registered with."""
        updates = self._updates.get(source)
        if updates is None:
            updates = self._updates[source] = []
            for name, op, amount in _FEEDS[source]:
                kind, labels, help, _, *buckets = INSTRUMENTS[name]
                instrument = getattr(self.registry, kind)(
                    name, help, *buckets, labels=labels
                )
                updates.append((getattr(instrument, f"_{op}"), amount, labels))
        for update, amount, labels in updates:
            update(
                tuple([str(attrs[label]) for label in labels]),
                amount(attrs) if callable(amount) else amount,
            )

    def _on_manager_usage(
        self, kind: str, job: str, lease_id: int, slot: int, now: float,
        cause: str, manager,
    ) -> None:
        self.meter.on_usage(kind, job, lease_id, slot, now, cause)
        self._sample_fleet(manager)

    def _sample_fleet(self, manager) -> None:
        self._update(
            FLEET,
            {
                "free": manager.available_gpus,
                "leased": manager.leased_gpus,
                "down": len(manager.down_slots()),
                "granted": manager.total_leases_granted,
                "revoked": manager.total_revocations,
            },
        )

    def on_event(self, event) -> None:
        """The trace-event listener (all planes): a pure function of
        the event stream."""
        self._on_row(event.kind, event.stage, event.attrs)

    def _on_row(self, kind: str, stage: int, pairs) -> None:
        """One trace event, as the columns hold it."""
        if kind not in _FEEDS:
            return
        attrs = dict(pairs)
        attrs["stage"] = stage
        self._update(kind, attrs)
        if kind == "prefetch_issue":
            heapq.heappush(self._landing, (attrs["land"], stage))
        status = _JOB_STATUS.get(kind)
        if status is not None:
            self._job_status[attrs["job"]] = status
            self._update(JOBS, collections.Counter(self._job_status.values()))
        metered = _METERED.get(kind)
        if metered is not None:
            field, amount = metered
            self.meter.bump(
                attrs.get("job", "serving"),
                field,
                attrs[amount] if isinstance(amount, str) else amount,
            )

    def _land(self, now: float) -> None:
        """Retire every copy that has landed by ``now``, a scrape's time:
        a sample counts the copies in flight at its instant."""
        landing = self._landing
        while landing and landing[0][0] <= now:
            self._update(LANDED, {"stage": heapq.heappop(landing)[1]})

    def on_serving_complete(self, latency_ms: float, retries: int) -> None:
        """Called by the serving engine when a request's result is
        final (batch completion or cache hit) — the point where its
        latency exists.  Updates the latency histogram and the SLO
        good/bad counters the burn-rate rules watch."""
        good = self._slo_ms is None or latency_ms <= self._slo_ms
        self._update(
            SLO_GOOD if good and retries == 0 else SLO_BAD,
            {"latency_ms": latency_ms},
        )

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def finalize(self, now: float) -> None:
        """Record the closing state after a plane quiesced."""
        self.scraper.scrape(now)

    def alert_report(self) -> Dict:
        return self.alerts.report(self.scraper.samples)

    def metering_report(self) -> Dict:
        return self.meter.report(self.manager)

    def peak_queue_depth(self) -> float:
        """The deepest any plane's ``*_queue_depth`` gauge ever stood."""
        return max(
            (
                gauge.peak()
                for gauge in self.registry.instruments()
                if gauge.name.endswith("_queue_depth")
            ),
            default=0.0,
        )

    def compact_block(self) -> Dict:
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


def replay_telemetry(trace, rules=None) -> TelemetryHub:
    """Build a hub post-hoc by replaying a finished trace's event
    columns through the listener's row function (no ``TraceEvent`` is
    built) — how :meth:`PipelineResult.telemetry` derives the compact
    block without having armed live scraping.  Identical
    instrument state to a live listener (the listener is a pure function
    of the event stream); the scrape series contains only the final
    sample."""
    hub = TelemetryHub(rules=rules)
    on_row = hub._on_row
    for kind, _, stage, _, pairs in trace.events.rows():
        on_row(kind, stage, pairs)
    hub.finalize(trace.end_time)
    return hub
