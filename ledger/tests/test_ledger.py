"""Tests of the ledger's own machinery (not of ``repro``).

Run with ``python -m pytest ledger/tests -q`` from the repo root; the
directory is outside tier-1's ``testpaths`` on purpose.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parent
sys.path.insert(0, str(LEDGER))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import compare  # noqa: E402
import programs  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_of_nested_and_sibling_spans():
    # root 0..10 holds a 1..4 (which holds b 2..3) and a sibling a 5..9
    name = [0, 1, 2, 1]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    figures = spans.self_times(name, parent, start, end, num_labels=3)
    assert figures.self_s.tolist() == [10 - 3 - 4, (3 - 1) + 4, 1.0]
    assert figures.calls.tolist() == [1, 2, 1]
    assert figures.self_s.sum() == pytest.approx(10.0)  # tiles the root exactly
    assert figures.removed_s == 0.0


def test_span_cost_is_taken_off_span_and_parent():
    name, parent = [0, 1, 1], [-1, 0, 0]
    start, end = [0.0, 1.0, 3.0], [10.0, 2.0, 4.0]
    figures = spans.self_times(name, parent, start, end, 2, cost=(0.25, 0.5))
    # root: 8 s self, one own inside cost, two children's outside cost
    assert figures.self_s.tolist() == [8 - 0.25 - 2 * 0.5, 2 - 2 * 0.25]
    assert figures.self_s.sum() + figures.removed_s == pytest.approx(10.0)


def test_recorder_records_parentage_and_cycled_labels():
    recorder = spans.Recorder(clock=FakeClock(0, 1, 2, 3, 4, 5, 6, 7))
    inner = recorder.wrap(lambda: None, ["first", "second"])
    outer = recorder.wrap(lambda: (inner(), inner()), "outer")
    with recorder.root("iteration"):
        outer()
    labels = [recorder.labels[i] for i in recorder.name]
    assert labels == ["iteration", "outer", "first", "second"]
    assert list(recorder.parent) == [-1, 0, 1, 1]
    assert list(recorder.start) == [0, 1, 2, 4]
    assert list(recorder.end) == [7, 6, 3, 5]
    assert recorder.iteration_slices() == [(0, 4)]


def test_after_hook_sees_the_result_once_the_span_closed():
    recorder = spans.Recorder()

    class Plane:
        events = 7

        def run(self):
            return "done"

    def after(plane, result, counts):
        counts["events"] += plane.events
        counts[result] += 1

    recorder.patch_method(Plane, "run", "layer|Plane.run", after)
    try:
        assert Plane().run() == "done"
    finally:
        recorder.remove()
    assert recorder.counts == {"events": 7, "done": 1}
    assert recorder.end[0] >= recorder.start[0] > 0


# ----------------------------------------------------------------------
# order statistics
# ----------------------------------------------------------------------
def test_median_and_percentile():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 2, 3]) == 2.5
    assert stats.percentile([10, 20, 30, 40, 50], 50) == 30
    assert stats.percentile([10, 20, 30, 40, 50], 90) == pytest.approx(46)
    assert stats.percentile([5], 99) == 5
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    import statistics

    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.spread(values) == pytest.approx((6 - 2) / 4)


@pytest.mark.parametrize(
    "count, expected",
    [(5, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_needs_ten_samples_beyond_it(count, expected):
    pct, value, n = stats.tail(list(range(count)))
    assert (pct, n) == (expected, count)
    assert sum(1 for sample in range(count) if sample > value) >= min(10, count // 2)


def test_exactness_follows_unit_but_not_for_the_harness_rows():
    assert stats.is_exact("core.sched_calls", "count")
    assert stats.is_exact("v_makespan_ms", "virtual_ms")
    assert not stats.is_exact("iter_s_p50", "s")
    assert not stats.is_exact("ledger.iters", "count")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workloads.names())
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    first = workloads.canonical(workloads.generate(name, 11))
    assert first == workloads.canonical(workloads.generate(name, 11))
    assert first != workloads.canonical(workloads.generate(name, 12))
    assert name not in first  # the program never learns which workload it is


def test_historic_point_is_the_committed_baseline():
    baseline = ROOT / "benchmarks" / "scheduler_baseline.json"
    if not baseline.exists():
        pytest.skip("benchmarks/scheduler_baseline.json is gone")
    engine = json.loads(baseline.read_text())["engine"]
    row = next(r for r in engine["rows"] if r["workload"] == "pipeline")
    point = workloads.HISTORIC_POINT
    assert (engine["space"], engine["subnets"], engine["batch"], engine["seed"]) == (
        point["space"], point["subnets"], point["batch"], point["seed"],
    )
    assert point["expect"] == {
        "makespan_ms": row["makespan_ms"],
        "events": row["events"],
        "trace_events": row["trace_events"],
    }


# ----------------------------------------------------------------------
# names: BENCHMARK.json is the one declaration
# ----------------------------------------------------------------------
def test_benchmark_declares_the_workloads_and_legal_names():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {w.name: w.why for w in workloads.WORKLOADS}
    names = list(declared) + [
        m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert BENCHMARK["paths"] == ["ledger"]
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}


def _run_ledger(*args: str, cwd: Path = ROOT, script: Path = LEDGER / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_are_exactly_the_declared_ones(trace, section):
    done = _run_ledger("--workload", "fleet_storm", "--seed", "5", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    row = json.loads(done.stdout.splitlines()[-2])
    assert row["seed"] == 5 and list(row["workloads"]) == ["fleet_storm"]
    if trace == "1":
        layers = {name: m["value"] for name, m in result["metrics"].items()}
        assert layers["ft.violations"] == 0 and layers["ft.scenarios"] == 8
        assert layers["nn.functional_busy_s"] > 0 and layers["obs.export_s"] == 0
        # the interaction rule: self times tile the traced iteration
        assert layers["ledger.attributed_share"] == pytest.approx(1.0, abs=0.01)


# ----------------------------------------------------------------------
# wrappers: installed only for a traced run, and gone afterwards
# ----------------------------------------------------------------------
def _entry_points():
    from repro.engines.pipeline import PipelineEngine
    from repro.sim.clock import EventQueue
    from repro.sim.trace import ExecutionTrace

    return {
        "PipelineEngine.run": (PipelineEngine, "run"),
        "EventQueue.schedule": (EventQueue, "schedule"),
        "ExecutionTrace.append_event": (ExecutionTrace, "append_event"),
    }


def _child_args(mode: str, tmp_path: Path) -> argparse.Namespace:
    return argparse.Namespace(
        workload="asp_fullctx", seed=3, mode=mode, seconds=0.0,
        workdir=str(tmp_path), spans_out=None,
    )


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    originals = {key: vars(owner)[attr] for key, (owner, attr) in _entry_points().items()}

    def forbidden(*args, **kwargs):
        raise AssertionError("spans installed in an untraced run")

    monkeypatch.setattr(programs, "install_spans", forbidden)
    monkeypatch.setattr(spans.Recorder, "wrap", forbidden)
    report = child.run(_child_args("run", tmp_path))
    assert report["failed"] == 0 and "traced" not in report
    for key, (owner, attr) in _entry_points().items():
        assert vars(owner)[attr] is originals[key]


def test_traced_run_removes_every_wrapper(tmp_path):
    import repro.engines.pipeline as pipeline
    from repro.partition.balanced import balanced_partition

    originals = {key: vars(owner)[attr] for key, (owner, attr) in _entry_points().items()}
    report = child.run(_child_args("trace", tmp_path))
    assert report["failed"] == 0
    layers = report["traced"]["layers"]
    assert layers["sim.events"] > 0 and layers["core.sched_calls"] == 0
    for key, (owner, attr) in _entry_points().items():
        assert vars(owner)[attr] is originals[key], key
    assert pipeline.balanced_partition is balanced_partition
    assert not hasattr(balanced_partition, "__wrapped__")


# ----------------------------------------------------------------------
# the check has teeth
# ----------------------------------------------------------------------
def test_corrupted_golden_fails_the_run(tmp_path):
    golden = json.loads((LEDGER / "golden.json").read_text())
    golden["workloads"]["cli_cold"]["2022"]["observed"]["v_makespan_ms"] += 1.0
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))
    for seed in ("2022", "9"):  # pinned directly, and through the pinned-seed check
        done = _run_ledger(
            "--workload", "cli_cold", "--seed", seed, "--seconds", "0.3", "--golden", str(corrupted)
        )
        assert done.returncode == 1, done.stdout + done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] is False
        assert result["failed"] == result["attempted"] > 0
        assert "golden mismatch" in done.stdout


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "ledger", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_ledger(
        "--workload", "csp_dense", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "ledger" / "run.py",
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _row(**metrics):
    return {
        "seed": 2022, "traced": False,
        "workloads": {"csp_dense": {"metrics": metrics, "failed_share": 0.0}},
    }


def test_compare_verdicts():
    timed = {"name": "iter_s_p50", "unit": "s", "better": "lower", "bound": 0.10}
    assert compare.judge(timed, [1.0], [1.05], spread=0.02)[0] == "within bound"
    assert compare.judge(timed, [1.0], [1.2], spread=0.02)[0] == "regression"
    assert compare.judge(timed, [1.0], [0.8], spread=0.02)[0] == "improved"
    # a spread wider than the bound decides nothing, in either direction
    assert compare.judge(timed, [1.0], [1.2], spread=0.15)[0] == "unresolved"
    assert compare.judge(timed, [1.0], [1.0], spread=0.15)[0] == "unresolved"
    rate = {"name": "work_per_s", "unit": "work/s", "better": "higher", "bound": 0.10}
    assert compare.judge(rate, [100.0], [80.0], spread=0.0)[0] == "regression"
    exact = {"name": "v_makespan_ms", "unit": "virtual_ms", "better": "lower"}
    assert compare.judge(exact, [5.0], [5.0], 0.0)[0] == "identical"
    assert compare.judge(exact, [5.0], [5.0000001], 0.0)[0] == "regression"
    calls = {"name": "core.sched_calls", "unit": "count", "better": "lower"}
    assert compare.judge(calls, [47168], [3072], 0.0)[0] == "improved"


def test_compare_counts_regressions_and_uses_within_run_spread():
    base = [_row(**{"iter_s_p50": 1.0, "ledger.iter_s_iqr": 0.02, "v_makespan_ms": 5.0})]
    same = [_row(**{"iter_s_p50": 1.04, "ledger.iter_s_iqr": 0.02, "v_makespan_ms": 5.0})]
    slow = [_row(**{"iter_s_p50": 1.3, "ledger.iter_s_iqr": 0.02, "v_makespan_ms": 5.0})]
    noisy = [_row(**{"iter_s_p50": 1.3, "ledger.iter_s_iqr": 0.4, "v_makespan_ms": 5.0})]
    moved = [_row(**{"iter_s_p50": 1.0, "ledger.iter_s_iqr": 0.02, "v_makespan_ms": 6.0})]
    assert compare.compare(base, same, BENCHMARK)[1] == 0
    assert compare.compare(base, slow, BENCHMARK)[1] == 1
    lines, regressions = compare.compare(base, noisy, BENCHMARK)
    assert regressions == 0 and any("unresolved" in line for line in lines)
    assert compare.compare(base, moved, BENCHMARK)[1] == 1
    failed = [_row(**{"iter_s_p50": 1.0, "ledger.iter_s_iqr": 0.02})]
    failed[0]["workloads"]["csp_dense"]["failed_share"] = 0.5
    assert compare.compare(base, failed, BENCHMARK)[1] == 1
