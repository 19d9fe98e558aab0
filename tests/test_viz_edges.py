"""Visualisation edge cases: empty traces, single buckets, and
zero-duration intervals.

A run that never dispatched a task still has a trace, so the renderers
and the Chrome exporter must degrade gracefully instead of dividing by a
zero span.
"""

import json

from repro.obs import export_chrome_trace, validate_chrome_trace
from repro.sim.trace import ExecutionTrace
from repro.viz import ascii_gantt, utilization_sparklines


def _empty_trace(gpus=2):
    return ExecutionTrace(num_gpus=gpus)


def _zero_duration_trace():
    trace = ExecutionTrace(num_gpus=1)
    trace.record_interval(0, 5.0, 5.0, "fwd", 0)  # zero-width work
    trace.record_interval(0, 5.0, 5.0, "stall", 1)
    trace.record_subnet_complete(0, 5.0)
    return trace


# ----------------------------------------------------------------------
# empty trace: zero intervals, zero makespan
# ----------------------------------------------------------------------
def test_gantt_of_empty_trace_renders_blank_rows():
    text = ascii_gantt(_empty_trace(), width=30)
    lines = text.splitlines()
    assert len(lines) == 3  # two GPU rows + legend
    for line in lines[:2]:
        assert line.startswith("GPU")
        assert set(line.split("|")[1]) <= {" "}


def test_sparklines_of_empty_trace_are_flat():
    text = utilization_sparklines(_empty_trace(), buckets=10)
    lines = text.splitlines()
    assert len(lines) == 2
    for line in lines:
        marks = line.split(" ", 1)[1].strip()
        assert set(marks) <= {""} or set(marks) <= {" "}


def test_chrome_trace_of_empty_trace_is_valid_json():
    payload = json.loads(export_chrome_trace(_empty_trace(), label="empty"))
    assert validate_chrome_trace(payload) == []
    events = payload["traceEvents"]
    # only the process/thread-name metadata rows, one GPU row per GPU
    assert all(event["ph"] == "M" for event in events)
    gpu_rows = [e for e in events if e["pid"] == 0 and e["name"] == "thread_name"]
    assert len(gpu_rows) == 2


# ----------------------------------------------------------------------
# degenerate shapes
# ----------------------------------------------------------------------
def test_sparklines_single_bucket():
    trace = ExecutionTrace(num_gpus=1)
    trace.record_interval(0, 0.0, 10.0, "fwd", 0)
    text = utilization_sparklines(trace, buckets=1)
    assert len(text.splitlines()) == 1
    marks = text.split(" ", 1)[1].strip()
    assert len(marks) == 1
    assert marks != " "  # fully busy bucket renders a block


def test_gantt_zero_duration_intervals_do_not_crash():
    text = ascii_gantt(_zero_duration_trace(), width=20)
    assert text.splitlines()[0].startswith("GPU0 |")


def test_sparklines_zero_duration_intervals_do_not_crash():
    text = utilization_sparklines(_zero_duration_trace(), buckets=8)
    assert len(text.splitlines()) == 1


def test_chrome_trace_zero_duration_intervals_keep_nonnegative_dur():
    payload = json.loads(export_chrome_trace(_zero_duration_trace()))
    assert validate_chrome_trace(payload) == []
    durations = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
    assert durations
    assert all(e["dur"] >= 0 for e in durations)
    completions = [
        e for e in payload["traceEvents"] if e.get("cat") == "completion"
    ]
    assert len(completions) == 1


def test_gantt_window_past_the_end_is_blank():
    trace = _zero_duration_trace()
    text = ascii_gantt(trace, width=20, start=100.0, end=200.0)
    assert set(text.splitlines()[0].split("|")[1]) <= {" "}
