"""Shared benchmark configuration.

Every benchmark regenerates one paper table/figure at a CI-friendly scale
and asserts the *shape* properties the paper reports (who wins, growth
directions, reproducibility verdicts).  Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from repro.experiments import ExperimentScale

# tests/scheduler_reference.py holds the synthetic stream driver the
# scheduler benches share with the equivalence suite
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return ExperimentScale(subnets=120, num_gpus=8)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    Experiment runners are deterministic and heavy; repeated rounds would
    only re-measure the same simulation.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


class ScheduleStopwatch:
    """Outside timer around ``schedule`` — the scheduler holds no clock.
    Stands in for the scheduler it wraps (every other attribute is the
    wrapped one's), so it can be set as ``engine.policy.scheduler``."""

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler
        self.elapsed_s = 0.0

    def __getattr__(self, name):
        return getattr(self.scheduler, name)

    def schedule(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return self.scheduler.schedule(*args, **kwargs)
        finally:
            self.elapsed_s += time.perf_counter() - started

    @property
    def mean_call_s(self) -> float:
        return self.elapsed_s / max(1, self.scheduler.calls)
