"""Unit tests for experiment-support helpers (figure4 math, common)."""

import pytest

from repro.experiments.common import ExperimentScale, make_stream, run_system
from repro.experiments.figure4 import ConvergenceCurve, _smooth

from dependency_reference import depends_on


def test_smooth_is_trailing_mean():
    series = [(0.0, 4.0), (1.0, 2.0), (2.0, 0.0)]
    smoothed = _smooth(series, window=2)
    assert smoothed[0] == (0.0, 4.0)
    assert smoothed[1] == (1.0, 3.0)
    assert smoothed[2] == (2.0, 1.0)


def test_smooth_window_clamps_at_start():
    series = [(float(i), float(i)) for i in range(5)]
    smoothed = _smooth(series, window=10)
    # Trailing mean over everything seen so far.
    assert smoothed[4][1] == pytest.approx(2.0)


def test_score_at_budget():
    curve = ConvergenceCurve(
        space="x", system="y",
        points=[(1.0, 3.0, 10.0), (2.0, 2.0, 20.0), (3.0, 1.0, 30.0)],
        final_score=30.0,
    )
    assert curve.score_at(0.5) is None
    assert curve.score_at(2.5) == 20.0
    assert curve.score_at(9.0) == 30.0


def test_make_stream_kinds():
    spos = make_stream("NLP.c3", ExperimentScale(subnets=8, stream_kind="spos"))
    generational = make_stream(
        "NLP.c3", ExperimentScale(subnets=8, stream_kind="generational")
    )
    assert len(spos) == len(generational) == 8
    # Generational: first 8 (one generation) are pairwise independent.
    members = list(generational)
    assert not any(
        depends_on(a, b)
        for i, a in enumerate(members)
        for b in members[i + 1:]
    )


def test_make_stream_salted_streams_differ():
    scale = ExperimentScale(subnets=8)
    a = make_stream("NLP.c3", scale, salt="alpha")
    b = make_stream("NLP.c3", scale, salt="beta")
    assert [s.choices for s in a] != [s.choices for s in b]


def test_run_system_returns_none_on_oom():
    scale = ExperimentScale(subnets=4)
    assert run_system("NLP.c0", "GPipe", scale) is None
    result = run_system("NLP.c0", "NASPipe", scale)
    assert result is not None and result.subnets_completed == 4


def test_run_system_overrides_forwarded():
    scale = ExperimentScale(subnets=4)
    result = run_system("NLP.c3", "NASPipe", scale, inject_window=3)
    assert result is not None
