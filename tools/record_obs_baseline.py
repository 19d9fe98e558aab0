#!/usr/bin/env python
"""Record the committed observability baseline for the CI compare gate.

Runs the chaos-baseline configuration (``examples/analyze_demo.json``)
and writes its registry record — run summary, critical-path breakdown,
config digest — as canonical JSON.  CI's chaos-smoke job re-runs the
same config and fails when makespan or bubble ratio regresses >2x
against this file (``naspipe compare ... --fail-on-regression 100``).

``git_sha`` is pinned to null so the committed baseline does not churn
with every commit; regenerate with ``make obs-baseline`` whenever an
intentional performance change moves the numbers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli import _config_identity, _load_run_config, _run_config  # noqa: E402
from repro.obs.registry import run_record  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "benchmarks/obs_baseline.json")
    config_path = REPO / "examples" / "analyze_demo.json"
    config, scale, run_kwargs = _load_run_config(config_path)
    result = _run_config(config, scale, run_kwargs)
    record = run_record(
        result,
        identity=_config_identity(config, scale.num_gpus, scale),
        git_sha=None,
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    )
    print(
        f"wrote {out}: run {record['run_id']}, "
        f"makespan {record['summary']['makespan_ms']:.1f} ms, "
        f"bubble {record['summary']['bubble_ratio']:.4f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
