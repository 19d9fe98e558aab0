"""Cross-run metrics registry: append-only JSONL + field-wise compare.

One record per finished run, holding everything the trajectory-level
questions need — the deterministic :func:`repro.obs.summary.run_summary`
dict, the critical-path breakdown, a config digest keying "the same
experiment", and a best-effort git SHA locating the code that produced
it.  Records append to ``.naspipe/runs.jsonl`` (or any ``--registry``
path) as canonical single-line JSON, so the registry is diff-able,
greppable and byte-stable: writing the same run twice produces two
byte-identical lines.

``compare_records`` diffs two records field by field (shared numeric
summary fields plus the per-resource critical-path split) and
``check_regression`` turns the diff into a verdict: ``naspipe compare
--fail-on-regression`` fails when makespan or bubble ratio regresses
past the threshold.

Record schema (see ``docs/ANALYSIS.md``):

```
{"schema": 1, "run_id": <sha256[:16] of summary+critical_path>,
 "config_digest": <sha256 of the run's identity>, "git_sha": <str|null>,
 "summary": {...run_summary...}, "critical_path": {...breakdown...}}
```

``git_sha`` is recorded for provenance but excluded from comparisons
and from ``run_id`` — two identical runs from different commits are
still the same run.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.payload import compact, sha256

__all__ = [
    "DEFAULT_REGISTRY",
    "config_digest",
    "run_record",
    "append_run",
    "load_runs",
    "resolve_run",
    "compare_records",
    "check_regression",
    "format_compare",
]

DEFAULT_REGISTRY = Path(".naspipe") / "runs.jsonl"

#: summary fields the comparison diffs (all numeric, all deterministic)
COMPARE_FIELDS = (
    "makespan_ms",
    "bubble_ratio",
    "throughput_samples_per_sec",
    "subnets_completed",
    "total_alu",
    "mean_exec_ms",
)

#: fields ``check_regression`` gates on: higher is worse for both
REGRESSION_FIELDS = ("makespan_ms", "bubble_ratio")


def config_digest(identity: Dict[str, object]) -> str:
    """SHA-256 of a canonical-JSON identity payload.  For manifest-based
    runs prefer :meth:`repro.replay.RunManifest.config_digest`, which
    digests the full replayable identity."""
    return sha256(identity)


def _git_sha(cwd: Optional[Path] = None) -> Optional[str]:
    """Best-effort HEAD SHA; None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=str(cwd) if cwd is not None else None,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def run_record(
    result,
    identity: Optional[Dict[str, object]] = None,
    git_sha: Union[str, None, bool] = True,
) -> Dict[str, object]:
    """Build the registry record for one :class:`PipelineResult`.

    ``identity`` overrides the config-digest payload (pass
    ``manifest.config_digest()`` material for replayable runs); the
    default digests the result's own identity fields.  ``git_sha=True``
    probes git; pass a string to pin it or ``None``/``False`` to omit.
    """
    from repro.obs.critical_path import critical_path_breakdown
    from repro.obs.summary import run_summary

    summary = run_summary(result)
    breakdown = critical_path_breakdown(result.trace)
    if identity is None:
        identity = {
            "system": result.system,
            "space": result.space,
            "num_gpus": result.num_gpus,
            "batch": result.batch,
        }
    body = {"summary": summary, "critical_path": breakdown}
    run_id = sha256(body)[:16]
    if git_sha is True:
        sha: Optional[str] = _git_sha()
    elif isinstance(git_sha, str):
        sha = git_sha
    else:
        sha = None
    record = {
        "schema": 1,
        "run_id": run_id,
        "config_digest": config_digest(identity),
        "git_sha": sha,
        "summary": summary,
        "critical_path": breakdown,
    }
    # Compact telemetry block (see docs/TELEMETRY.md): derived by
    # replaying the trace through the telemetry listener, and — like
    # git_sha — excluded from run_id (the body above is digested before
    # this key exists), so records from pre-telemetry registries still
    # resolve by the same ids.
    telemetry = getattr(result, "telemetry", None)
    if callable(telemetry):
        record["telemetry"] = telemetry().compact_block()
    return record


def append_run(
    record: Dict[str, object], path: Union[str, Path, None] = None
) -> Path:
    """Append one record as a canonical JSON line; returns the path."""
    registry = Path(path) if path is not None else DEFAULT_REGISTRY
    registry.parent.mkdir(parents=True, exist_ok=True)
    with registry.open("a", encoding="utf-8") as handle:
        handle.write(compact(record) + "\n")
    return registry


def load_runs(path: Union[str, Path, None] = None) -> List[Dict[str, object]]:
    """All records in the registry, oldest first; [] when absent."""
    registry = Path(path) if path is not None else DEFAULT_REGISTRY
    if not registry.exists():
        return []
    records = []
    for line in registry.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def resolve_run(
    ref: str, registry: Union[str, Path, None] = None
) -> Dict[str, object]:
    """A record from a reference: a record file — one JSON document, or
    JSONL whose last record wins — or a ``run_id`` prefix looked up in
    the registry.  A prefix matching two different run_ids is an error
    naming them; one run_id filed twice resolves to its latest record
    (the registry is append-only, so "latest" is the most recent run of
    that id)."""
    if not ref:
        raise ValueError("empty run reference: give a record file or a run_id prefix")
    path = Path(ref)
    if path.is_file():
        text = path.read_text(encoding="utf-8").strip()
        if not text:
            raise ValueError(f"empty run record file: {ref}")
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return json.loads(text.splitlines()[-1])
    matches = [
        record
        for record in load_runs(registry)
        if str(record.get("run_id", "")).startswith(ref)
    ]
    if not matches:
        raise KeyError(
            f"no run {ref!r}: not a file and no run_id prefix match in "
            f"{Path(registry) if registry is not None else DEFAULT_REGISTRY}"
        )
    run_ids = sorted({str(record["run_id"]) for record in matches})
    if len(run_ids) > 1:
        raise ValueError(f"run_id prefix {ref!r} is ambiguous: {', '.join(run_ids)}")
    return matches[-1]


def _delta(base: float, other: float) -> Dict[str, float]:
    entry = {"a": base, "b": other, "delta": other - base}
    entry["ratio"] = (other / base) if base else (1.0 if other == base else float("inf"))
    return entry


def compare_records(
    a: Dict[str, object], b: Dict[str, object]
) -> Dict[str, object]:
    """Field-by-field diff of two records (deterministic key order).

    Covers the numeric summary fields in :data:`COMPARE_FIELDS` plus the
    per-resource critical-path milliseconds.  ``git_sha`` is reported
    for context but never diffed.
    """
    summary_a = a.get("summary", {})
    summary_b = b.get("summary", {})
    fields = {}
    for field in COMPARE_FIELDS:
        if field in summary_a and field in summary_b:
            fields[field] = _delta(
                float(summary_a[field]), float(summary_b[field])
            )
    cp_a = a.get("critical_path", {}).get("by_resource_ms", {})
    cp_b = b.get("critical_path", {}).get("by_resource_ms", {})
    critical_path = {
        resource: _delta(float(cp_a[resource]), float(cp_b[resource]))
        for resource in sorted(set(cp_a) & set(cp_b))
    }
    telemetry = _compare_telemetry(
        a.get("telemetry") or {}, b.get("telemetry") or {}
    )
    return {
        "schema": 1,
        "run_a": {
            "run_id": a.get("run_id"),
            "config_digest": a.get("config_digest"),
            "git_sha": a.get("git_sha"),
        },
        "run_b": {
            "run_id": b.get("run_id"),
            "config_digest": b.get("config_digest"),
            "git_sha": b.get("git_sha"),
        },
        "same_config": a.get("config_digest") == b.get("config_digest"),
        "fields": fields,
        "critical_path": critical_path,
        "telemetry": telemetry,
    }


def _compare_telemetry(a: Dict, b: Dict) -> Dict[str, object]:
    """Diff of two compact telemetry blocks (empty dict when neither
    record carries one — pre-telemetry registries stay comparable)."""
    if not a and not b:
        return {}
    diff: Dict[str, object] = {}
    for field in ("peak_queue_depth", "alerts_fired", "scrapes"):
        if field in a or field in b:
            diff[field] = _delta(
                float(a.get(field, 0.0)), float(b.get(field, 0.0))
            )
    usage_a = a.get("gpu_slot_ms") or {}
    usage_b = b.get("gpu_slot_ms") or {}
    if usage_a or usage_b:
        diff["gpu_slot_ms"] = {
            tenant: _delta(
                float(usage_a.get(tenant, 0.0)),
                float(usage_b.get(tenant, 0.0)),
            )
            for tenant in sorted(set(usage_a) | set(usage_b))
        }
    return diff


def check_regression(
    comparison: Dict[str, object], threshold_pct: float
) -> List[str]:
    """Regression verdicts: fields where run B is worse than run A by
    more than ``threshold_pct`` percent.  Empty list = gate passes.
    ``--fail-on-regression 100`` is the 2x gate."""
    failures = []
    limit = 1.0 + threshold_pct / 100.0
    for field in REGRESSION_FIELDS:
        entry = comparison.get("fields", {}).get(field)
        if entry is None:
            continue
        base, other = entry["a"], entry["b"]
        if base <= 0:
            # a zero baseline cannot express a percentage; any increase
            # beyond noise is a regression
            if other > 1e-9:
                failures.append(
                    f"{field}: {base:.6g} -> {other:.6g} "
                    f"(no baseline to scale {threshold_pct:g}% against)"
                )
            continue
        if other > base * limit:
            failures.append(
                f"{field}: {base:.6g} -> {other:.6g} "
                f"(+{(other / base - 1.0) * 100.0:.1f}% > "
                f"{threshold_pct:g}% threshold)"
            )
    return failures


def format_compare(comparison: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`compare_records` (also
    byte-deterministic)."""
    lines = [
        f"run A: {comparison['run_a']['run_id']}  "
        f"config {str(comparison['run_a']['config_digest'])[:12]}",
        f"run B: {comparison['run_b']['run_id']}  "
        f"config {str(comparison['run_b']['config_digest'])[:12]}",
        "same config: " + ("yes" if comparison["same_config"] else "no"),
        "",
        f"{'field':<28} {'run A':>14} {'run B':>14} {'delta':>12} {'ratio':>8}",
    ]
    for field, entry in comparison["fields"].items():
        lines.append(
            f"{field:<28} {entry['a']:>14.4f} {entry['b']:>14.4f} "
            f"{entry['delta']:>+12.4f} {entry['ratio']:>8.3f}"
        )
    if comparison["critical_path"]:
        lines.append("")
        lines.append("critical path (ms on path):")
        for resource, entry in comparison["critical_path"].items():
            lines.append(
                f"  {resource:<26} {entry['a']:>14.4f} {entry['b']:>14.4f} "
                f"{entry['delta']:>+12.4f}"
            )
    telemetry = comparison.get("telemetry") or {}
    if telemetry:
        lines.append("")
        lines.append("telemetry:")
        for field in ("peak_queue_depth", "alerts_fired", "scrapes"):
            entry = telemetry.get(field)
            if entry is not None:
                lines.append(
                    f"  {field:<26} {entry['a']:>14.4f} {entry['b']:>14.4f} "
                    f"{entry['delta']:>+12.4f}"
                )
        for tenant, entry in (telemetry.get("gpu_slot_ms") or {}).items():
            lines.append(
                f"  gpu_slot_ms[{tenant}]".ljust(28)
                + f" {entry['a']:>14.4f} {entry['b']:>14.4f} "
                f"{entry['delta']:>+12.4f}"
            )
    return "\n".join(lines) + "\n"
