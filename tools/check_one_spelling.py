#!/usr/bin/env python
"""Fail when a decision ``src/repro`` makes once is spelled a second time.

A rule is (regex, the files that may hold it, its exact number of hits in
total, what to call instead[, the directory it is confined to]): a
spelling that outlived its home or lost it both fail.  Run by ``make docs-check`` and the CI ``docs`` job.
"""

import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
KNOBS = "quantum|resize_cost_ms|max_restarts|requeue_backoff_ms|slots_per_node"
#: the modules whose configs were read key by key before each became a dataclass
CONFIG_READERS = ("cli.py", "ft/fleet.py", "service/scheduler.py", "obs/telemetry/alerts.py")
CACHE_HOMES = ("core/context_manager.py", "memory_model.py")
READERS = tuple(f"obs/{name}.py" for name in ("summary", "critical_path", "whatif", "exporter"))
RULES = [
    (r"sort_keys=True", ("payload.py",), 2, "payload.compact / payload.indented"),
    (r"\.scaled\(\*\*", ("baselines/systems.py",), 1, "resolve_target"),
    (r'== "generational"', ("supernet/sampler.py",), 1, "SubnetStream.sample_kind"),
    (r"expected_subnet_param_count\(\) \* 4", CACHE_HOMES, 2, "stage_cache_bytes"),
    (rf'payload\.get\("({KNOBS})"', (), 0, "JobScheduler.from_payload"),
    # events are stored as columns: emitters pass fields; the class and
    # the listeners' row are all (docs/ARCHITECTURE.md §5)
    (r"TraceEvent\(", ("sim/trace.py",), 2, "trace.append_event(kind, time, stage, subnet_id, attrs)"),
    # a gain bought with gc.disable/freeze/set_threshold hides every leak
    (r"\bgc\.", (), 0, "fewer tracked objects"),
    # the event heap orders (time, priority, sequence, handle) tuples in
    # C; an ordered handle would put a Python __lt__ back under every sift
    (r"order=True", (), 0, "the key tuple EventQueue.schedule pushes", "sim/"),
    # an architecture is hashed once per deployment, by the plan builder
    # of the ServingInputs every engine of a bench or a sweep shares
    (r"subnet_digest\(", ("serving/cache.py", "serving/frontend.py"), 2, "ServingInputs.plan(subnet).digest"),
    # a workload's request paths are drawn at one site, its arrival times
    # at one site, both by the RequestDraws a ServingInputs holds
    (r"(?<!def )_request_paths\(", ("serving/workload.py",), 1, "RequestDraws.requests"),
    (r"(?<!def )_arrival_times\(", ("serving/workload.py",), 1, "RequestDraws.requests"),
    # the trace readers import as a tree (model <- critical_path <- summary,
    # model <- whatif, model <- exporter): no import hidden in a function
    (r"(?m)^[ \t]+(?:from|import) repro\.obs", (), 0, "a top-level import", *READERS),
    # one reading of a trace: transfers and admissions are extracted once,
    # by RunModel's single scan of the event log
    (r'events_of\([^)]*"(?:nic_transfer|subnet_inject)"', (), 0, "obs.model.RunModel", "obs/"),
    # a reader selects its rows from the event columns, in one C-level
    # pass over the kind column; it builds no TraceEvent row
    (r"events_of\(", (), 0, "obs.model._select", "obs/"),
    # idle gaps come in time order: one forward cursor per merged list,
    # not a scan restarted from the first segment on every gap
    (r"_overlap\(\[", (), 0, "obs.model._Sweep"),
    # the exporter renders from its kind tables, not a chain of arms
    (r"elif kind", (), 0, "a row in _INSTANTS / _SPECIAL", "obs/exporter.py"),
    # an instrument is requested from a registry at one site, by the hub,
    # from its table — by type name there, so both spellings are counted
    (
        r"registry(\.(counter|gauge|histogram)|, kind\))\(",
        ("obs/telemetry/__init__.py",),
        1,
        "a row in obs.telemetry.INSTRUMENTS",
    ),
    # a plane wires a hub with the one attach(trace, sim, manager, slo_ms)
    (r"attach_(engine|service|serving)", (), 0, "TelemetryHub.attach"),
    # the .npz member name b<block>_c<choice>/<name>: one encoder, one parser
    (r"_c\{", ("nn/parameter_store.py",), 1, "parameter_store.member_name / save_members"),
    (r'split\("_c"\)', ("nn/parameter_store.py",), 1, "parameter_store.parse_member / load_members"),
    # scenario seeds are drawn by the one sweep driver
    (r"100_003", ("ft/chaos.py",), 1, "ft.chaos.sweep"),
    # removed forks stay removed: the second Chrome exporter, the
    # record-instead-of-raise switch, probing a policy for what it declares
    (r"to_chrome_trace", (), 0, "repro.obs.export_chrome_trace"),
    (r"on_exhausted", (), 0, "except FaultToleranceError"),
    (r"getattr\(self\.policy", (), 0, "SyncPolicy.tracker / SyncPolicy.scheduler"),
    # the Chrome export writes each event's text once, from its kind's
    # renderer: no payload dict re-serialised, no key re-sorted
    (r"json\.dumps|sort_keys", (), 0, "a renderer's text / payload.compact", "obs/exporter.py"),
    # a series key is validated by the public kwargs API only; the hub
    # keys a series from its INSTRUMENTS row and calls the key-taking op
    (r"\b_key\(", ("obs/telemetry/registry.py",), 9, "instrument._inc/_set/_add/_observe(key, …)"),
    # a replay reads the event columns; it builds no TraceEvent row
    (r"events_of\(\*LISTENED_KINDS", (), 0, "trace.events.rows() into TelemetryHub._on_row"),
    # degraded-mode mitigation is timing-only: its thresholds are module
    # constants and ``degradation`` is a bool, with no policy to coerce
    (
        r"DegradationPolicy|as_manager|_degradation_policy|_degradation_payload|on_scenario",
        (),
        0,
        "degradation=True / the ft.degradation constants",
    ),
    # the restart budget, the restart delay and the re-warm are constants
    (
        r"spec\.(max_restarts|restart_delay_ms|rewarm)",
        (),
        0,
        "ft.recovery.MAX_RESTARTS / RESTART_DELAY_MS",
    ),
    # one regression gate, across runs; a byte that must not move is an
    # entry of tests/goldens.json, not a committed baseline behind a band
    (r"def check_regression", ("obs/registry.py",), 1, "obs.registry.check_regression / a tests/goldens.json entry"),
    # a whole-trace pass reads the event columns; it builds no row per event
    (r"for event in trace\.events\b", (), 0, "trace.events.rows()", "obs/"),
    # the per-sample activation term is spelled once; the batch budget is
    # solved from it, not searched
    (r"_STASH_BYTES\[", ("memory_model.py",), 1, "memory_model.activation_bytes_per_sample"),
    # a package re-exports through its {module: names} table; the PEP 562
    # hook is written once, in the helper every package __init__ calls
    (r"def __getattr__\(", ("__init__.py",), 1, "repro._exports(globals(), {module: names})"),
    # a plane hands the cluster manager its simulator's bound clock; a
    # closure over the plane would make every finished plane (and its
    # trace) a cycle that only a full collection frees
    (r"clock = lambda: self", (), 0, "manager.clock = self.sim.clock"),
    # a job's seeded inputs are derived by its one SeededInputs, which every
    # plane of the job shares: a layer's initial weights are drawn from a
    # seed at one site, and a training batch at one site
    (r"(?<!def )layer_init_generator\(", ("engines/functional_plane.py",), 1, "SeededInputs.weights"),
    (r"\.batch\([^,()]+,", ("engines/functional_plane.py",), 1, "SeededInputs.batch"),
    # "did this run reproduce that one?" (Definition 1) is asked at one
    # site; the straggler study's table cells compare digests as data
    (
        r"digest\s*[!=]=",
        ("invariants.py", "experiments/straggler.py"),
        3,
        "repro.invariants.same_training",
    ),
    # a trace is schema-checked by the one invariant every harness composes
    (r"validate_trace\(", ("invariants.py", "obs/events.py"), 2, "repro.invariants.trace_valid"),
    # a config value is checked against its type once, by the payload
    # reader, and never cast; the trace validators check trace fields
    (
        r"isinstance\([^)]*bool\)",
        ("payload.py", "obs/events.py", "obs/exporter.py"),
        5,
        "payload.integer / payload.number / payload.check",
    ),
    (r"(int|float|bool)\((payload|config)\b", (), 0, "payload.integer / payload.number / payload.check"),
    (r"check_functional_batch|_positive\(|_integer\(", (), 0, "payload.integer / payload.number"),
    # the recorded-run recipe is written once, beside the functional
    # plane; every other default refers to that one spelling
    (r"0\.3, 0\.9, 5\.0", ("engines/functional_plane.py",), 1, "functional_plane.default_optimizer"),
    # (MomentumSGD's own momentum default happens to be the recipe's)
    (
        r"(learning_rate|momentum|max_grad_norm)(: \w+)? ?= ?(0\.3|0\.9|5\.0)\b",
        ("nn/optim.py",),
        1,
        "functional_plane.LEARNING_RATE / MOMENTUM / MAX_GRAD_NORM",
    ),
    (r"(?i)functional_batch(: int)? ?= ?8\b", ("engines/functional_plane.py",), 1, "functional_plane.FUNCTIONAL_BATCH"),
    (r'(?i)stream_kind(: str)? ?= ?"spos"', ("engines/functional_plane.py",), 1, "functional_plane.STREAM_KIND"),
    (r'checkpoint_interval(: int = | or |", )8\b', ("ft/recovery.py",), 1, "RecoverySpec.checkpoint_interval"),
    # a manifest is read by the typed reader, like every other payload
    (r"cls\(\*\*payload\)", (), 0, "payload.build(RunManifest, payload, \"manifest\")"),
    # a config is a declared class read by payload.build: no key list is
    # kept beside it and no key is read with its default spelled in place
    (r"reject_unknown\(", ("payload.py",), 2, "a dataclass read by payload.build"),
    *(
        (r'(config|payload|window)\.get\("', (), 0, "a field of the config's dataclass", reader)
        for reader in CONFIG_READERS
    ),
    # an engine reads a layer's facts from its one layer table, which
    # asks the supernet's profile the first time it sees the layer
    (r"supernet\.profile\b", ("engines/pipeline.py",), 1, "self._layers[layer]", "engines/pipeline.py"),
    (r"_layer_cost", (), 0, "self._layers[layer]", "engines/pipeline.py"),
    # who still holds a layer is one record: the sorted list of its users
    # that have not released it, which the readiness index reads too
    (r"self\._(users|released|watchers)\b", (), 0, "DependencyTracker._unreleased", "core/"),
    # one CSP decision path, the readiness index: Algorithm 2's pseudocode
    # (whole earlier subnets against a stage-finished list past a global
    # frontier) is no runtime option but the scheduler-cost experiment
    (
        r"conservative|scheduler_mode|stage_finished|SCHEDULER_MODES|\.frontier\b",
        (),
        0,
        "CspScheduler.schedule / experiments.scheduler_cost",
    ),
]


def violations(sources) -> list:
    """One line per rule the ``{path under src/repro: text}`` sources break."""
    errors = []
    for pattern, homes, limit, instead, *under in RULES:
        hits = {
            name: len(re.findall(pattern, text))
            for name, text in sources.items()
            if name.startswith(tuple(under) or "")
        }
        strays = sorted(name for name, count in hits.items() if count and name not in homes)
        if strays or sum(hits.values()) != limit:
            errors.append(
                f"{pattern!r}: {sum(hits.values())} hit(s); exactly {limit}, in "
                f"{list(homes)} only, but also in {strays} — use {instead}"
            )
    return errors


def main() -> int:
    sources = {p.relative_to(SRC).as_posix(): p.read_text() for p in SRC.rglob("*.py")}
    errors = violations(sources)
    print("\n".join(errors) or f"one spelling each: {len(RULES)} rules hold")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
