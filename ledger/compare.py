"""Judge two sets of ledger rows by the benchmark's own bounds.

    python ledger/compare.py A.jsonl B.jsonl

Each file holds one or more rows written by ``ledger/run.py --row FILE``
(same seed, same mode); ``A`` is the baseline.  For every workload and
metric the medians over each file's rows are compared:

* figures that repeat exactly (virtual clock, counts, ``failed_share``)
  must be identical — any worsening is a regression, whatever its size;
* host-time figures with a bound in ``BENCHMARK.json`` are *within
  bound*, *improved* or a *regression* — unless the runs' own
  inter-quartile spread exceeds the bound, in which case the pair is
  **unresolved**: the measurement cannot tell, which is not the same as
  unchanged;
* host-time figures without a bound (per-layer) are listed for reading.

Exit status 1 on any regression or rise in ``failed_share``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

LEDGER = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER))

import stats  # noqa: E402

#: with fewer rows than this a file's own spread is taken from the
#: within-run diagnostics each row carries
MIN_ROWS_FOR_SPREAD = 4
#: within-run spread of a host metric: (inter-quartile diagnostic, its median)
_WITHIN_RUN = {
    "iter_s_p50": ("ledger.iter_s_iqr", "iter_s_p50"),
    "work_per_s": ("ledger.iter_s_iqr", "iter_s_p50"),
    "setup_s": ("ledger.setup_s_iqr", "setup_s"),
}


def load_rows(path: Path) -> List[Dict]:
    rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    if not rows:
        raise SystemExit(f"{path}: no ledger rows")
    return rows


def _declared(benchmark: Dict) -> Dict[str, Dict]:
    declared = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    declared["failed_share"] = {"name": "failed_share", "unit": "ratio", "better": "lower"}
    return declared


def _values(rows: Sequence[Dict], workload: str, metric: str) -> List[float]:
    found = []
    for row in rows:
        entry = row["workloads"].get(workload)
        if entry is None:
            continue
        if metric == "failed_share":
            found.append(entry["failed_share"])
        elif metric in entry["metrics"]:
            found.append(entry["metrics"][metric])
    return found


def _own_spread(rows: Sequence[Dict], workload: str, metric: str) -> float:
    values = _values(rows, workload, metric)
    if len(values) >= MIN_ROWS_FOR_SPREAD:
        return stats.spread(values)
    if metric not in _WITHIN_RUN:
        return 0.0
    iqr_name, median_name = _WITHIN_RUN[metric]
    iqrs, medians = _values(rows, workload, iqr_name), _values(rows, workload, median_name)
    if not iqrs or not medians:
        return 0.0
    return stats.median(iqrs) / stats.median(medians)


def judge(metric: Dict, base: List[float], new: List[float], spread: float) -> Tuple[str, float]:
    """``(verdict, worsening)``: worsening is the change of the median as
    a share of the baseline, positive when the metric got worse."""
    before, after = stats.median(base), stats.median(new)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (after - before) / abs(before) if before else sign * (after - before)
    if metric["name"] == "failed_share" or stats.is_exact(metric["name"], metric["unit"]):
        if len(set(base)) > 1 or len(set(new)) > 1:
            return "regression (not exact within one file)", worse
        if after == before:
            return "identical", 0.0
        return ("regression" if worse > 0 else "improved"), worse
    bound: Optional[float] = metric.get("bound")
    if bound is None:
        return "", worse
    if spread > bound:
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    if worse < -bound:
        return "improved", worse
    return "within bound", worse


def compare(base_rows: List[Dict], new_rows: List[Dict], benchmark: Dict) -> Tuple[List[str], int]:
    """Report lines and the number of regressions."""
    for key in ("seed", "traced"):
        if {row[key] for row in base_rows} != {row[key] for row in new_rows}:
            raise SystemExit(f"the two files differ in {key!r}; compare like with like")
    declared = _declared(benchmark)
    lines, regressions = [], 0
    names = [w["name"] for w in benchmark["workloads"]]
    for workload in names:
        metrics = [
            name for name in declared
            if _values(base_rows, workload, name) and _values(new_rows, workload, name)
        ]
        for name in metrics:
            base = _values(base_rows, workload, name)
            new = _values(new_rows, workload, name)
            spread = max(
                _own_spread(base_rows, workload, name), _own_spread(new_rows, workload, name)
            )
            verdict, worse = judge(declared[name], base, new, spread)
            regressions += verdict.startswith("regression")
            lines.append(
                f"{workload:<13s} {name:<28s} {stats.median(base):>14.6g} -> "
                f"{stats.median(new):>14.6g} {declared[name]['unit']:<10s} "
                f"worse by {worse * 100:+7.2f}%  spread {spread * 100:5.2f}%  {verdict}"
            )
    return lines, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((LEDGER.parent / "BENCHMARK.json").read_text())
    lines, regressions = compare(load_rows(args.baseline), load_rows(args.candidate), benchmark)
    print("\n".join(lines))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
