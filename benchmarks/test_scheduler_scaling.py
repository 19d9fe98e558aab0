"""Scheduler-scaling microbenchmark (paper §3.2's flat-cost claim).

Races the incremental readiness index against the rescanning reference
implementation over 100→1000-subnet streams with a straggler pinning the
elimination frontier — the adversarial regime where per-layer user lists
grow with the stream.  Asserts the three properties the ISSUE's
acceptance criteria name:

1. both modes emit identical ``(qidx, qval)`` decision sequences;
2. the index's mean per-call cost stays flat (within 2×) from the
   shortest to the longest stream;
3. the scan reference grows with stream length (the trap the index
   removes).

Also writes ``BENCH_scheduler.json`` at the repo root so the run's
numbers are inspectable.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments import scheduler_cost

STREAM_LENS = (100, 300, 1000)


def _payload():
    return scheduler_cost.run_scaling(stream_lens=STREAM_LENS)


def test_scheduler_scaling(benchmark):
    payload = benchmark.pedantic(_payload, rounds=1, iterations=1)

    # 1. bitwise-identical scheduling decisions — any divergence is a
    # correctness bug, not a perf delta.
    assert payload["decision_identical"]

    by_key = {
        (p["mode"], p["stream_len"]): p["mean_call_us"]
        for p in payload["points"]
    }
    # 2. index per-call cost flat within 2x out to 1000-subnet streams.
    assert payload["index_flatness"] < 2.0, payload
    # 3. the scan reference pays for the growing user lists; at 10x the
    # stream it must be measurably slower than the index is at all.
    assert by_key[("scan", 1000)] > 2.0 * by_key[("index", 1000)], payload

    scheduler_cost.write_bench_json(
        payload, Path(__file__).resolve().parent.parent / "BENCH_scheduler.json"
    )


def test_scheduler_regression_gate():
    """The committed baseline must hold on a reduced stream (CI gate)."""
    payload = scheduler_cost.run_scaling(stream_lens=(50, 200))
    failures = scheduler_cost.check_regression(
        payload,
        Path(__file__).resolve().parent / "scheduler_baseline.json",
    )
    assert not failures, failures

