"""Run observability: trace event schema, Perfetto export, summaries.

``repro.obs`` turns the simulator's :class:`~repro.sim.trace.ExecutionTrace`
into inspectable artifacts:

* :mod:`repro.obs.events` — the machine-checked registry of every typed
  trace event (kind, fields, emitting module); ``docs/TRACING.md`` is the
  prose rendering of the same registry.
* :mod:`repro.obs.exporter` — Chrome Trace Event Format JSON (loadable
  in Perfetto / ``chrome://tracing``) with GPU, copy-engine, NIC and
  scheduler tracks plus cache/queue/ready-set counters.  Deterministic
  byte-for-byte across identical runs.
* :mod:`repro.obs.model` — the run model: per-GPU activity chains,
  boundary transfers, admissions, CSP wait windows and link parameters,
  extracted from a trace in one place and read by the three analyses
  below and the exporter's wait-window track.
* :mod:`repro.obs.summary` — per-stage bubble attribution (startup vs
  CSP-wait vs fetch-stall vs drain) and a deterministic run summary; the
  attribution sums back to ``ExecutionTrace.bubble_ratio()`` exactly.
* :mod:`repro.obs.critical_path` — the task-DAG critical path of a run,
  attributed by resource class; tiles the makespan exactly (1e-9).
* :mod:`repro.obs.whatif` — analytic lower-bound projections ("zero
  fetch stalls", "infinite NIC", the ASP bound).
* :mod:`repro.obs.registry` — append-only JSONL run registry with
  field-wise compare and CI regression gating.

Entry points: ``run_summary(result)``, ``PipelineResult.trace_export()`` /
``.critical_path()`` / ``.what_if()``, the ``naspipe trace`` /
``analyze`` / ``compare`` CLI and ``make trace-demo`` / ``bench-obs``.
See ``docs/ANALYSIS.md`` for the analysis semantics.
"""

from repro import _exports

# ``critical_path`` is also a submodule, whose first import would set the
# package attribute to the module: bind the function now, so it wins
from repro.obs.critical_path import critical_path

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.obs.events": (
        "EVENT_SCHEMAS", "EventField", "EventSchema", "validate_trace",
    ),
    "repro.obs.exporter": ("export_chrome_trace", "validate_chrome_trace"),
    "repro.obs.model": ("WaitWindow", "csp_wait_windows"),
    "repro.obs.summary": (
        "StageBubbles", "bubble_attribution", "format_summary", "run_summary",
        "summary_json",
    ),
    "repro.obs.critical_path": (
        "RESOURCE_CLASSES", "CriticalPath", "PathSegment", "critical_path",
        "critical_path_breakdown",
    ),
    "repro.obs.whatif": ("SCENARIOS", "what_if_report"),
    "repro.obs.registry": (
        "append_run", "check_regression", "compare_records", "format_compare",
        "load_runs", "resolve_run", "run_record",
    ),
})
