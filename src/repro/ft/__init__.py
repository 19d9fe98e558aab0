"""Fault tolerance and elastic recovery (``repro.ft``).

NASPipe's reproducibility claim (Definitions 1-2) has a production
consequence the paper never tests: because CSP makes the final weights a
pure function of the subnet stream — independent of cluster timing — a
crashed training job can resume from a *consistent* checkpoint on the
same or a **different** GPU count and finish with bitwise-identical
parameters.  This package builds the machinery to inject failures,
take consistent-cut checkpoints, recover, and measure the cost:

* :mod:`repro.ft.faults` — deterministic fault schedules (GPU crash,
  host crash, NIC degradation, copy-engine stall, transient task error)
  with explicit trigger times or seeded MTBF sampling;
* :mod:`repro.ft.injector` — turns a schedule into first-class
  simulation events inside a :class:`~repro.engines.pipeline.
  PipelineEngine` run;
* :mod:`repro.ft.checkpoint` — consistent-cut checkpointing driven by
  the CSP frontier (undo-log construction; see
  ``docs/FAULT_TOLERANCE.md``);
* :mod:`repro.ft.recovery` — crash-restart / elastic-rescale driver
  plus retry and degraded-mode policies;
* :mod:`repro.ft.availability` — lost-virtual-time, recovery-latency
  and goodput accounting;
* :mod:`repro.ft.degradation` — health monitoring over the trace-event
  stream and deterministic adaptive mitigation (admission control,
  prefetch throttling, straggler rebalancing) for *non-fatal* faults;
* :mod:`repro.ft.chaos` — seeded randomized robustness sweeps with an
  invariant suite (completion, bitwise digest, trace validity, memory
  cap, bubble accounting);
* :mod:`repro.ft.fleet` — fleet-scale preemption storms across the
  co-located service and serving planes (lease revocation, rigid
  requeue/fail, serving retry) with their own invariant suite.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.ft.availability": ("availability_summary", "failure_summary", "format_availability"),
    "repro.ft.chaos": (
        "NONFATAL_KINDS", "chaos_invariants", "chaos_sweep", "format_chaos_report",
        "run_chaos_scenario",
    ),
    "repro.ft.checkpoint": ("Checkpoint", "CheckpointManager"),
    "repro.ft.degradation": ("DegradationManager", "HealthMonitor"),
    "repro.ft.faults": (
        "ALL_KINDS", "FATAL_KINDS", "FAULT_KINDS", "FLEET_KINDS", "FaultEvent",
        "FaultSchedule",
    ),
    "repro.ft.fleet": (
        "fleet_report_json", "fleet_sweep", "format_fleet_report", "run_fleet_scenario",
    ),
    "repro.ft.injector": ("FaultInjector",),
    "repro.ft.recovery": (
        "FaultedRunResult", "JobMemo", "RecoverySpec", "build_stream", "fresh_plane",
        "rewarm_prefetch", "run_uninterrupted", "run_with_recovery",
    ),
})
