"""Metrics helpers and the analytic bubble fractions tests hold runs to."""

import pytest

from engine_reference import gpipe_theory_bubble, pipeline_theory_bubble
from repro.metrics.reproducibility import ReproducibilityReport
from repro.metrics.throughput import normalize_throughput, subnets_per_hour


def test_gpipe_theory_bubble():
    assert gpipe_theory_bubble(8, 5) == pytest.approx(7 / 12)
    assert gpipe_theory_bubble(1, 4) == 0.0
    with pytest.raises(ValueError):
        gpipe_theory_bubble(0, 4)


def test_pipeline_theory_bubble():
    assert pipeline_theory_bubble(8, 8) == 0.0
    assert pipeline_theory_bubble(8, 4) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        pipeline_theory_bubble(8, 0)


def test_normalize_throughput_handles_oom():
    normalized = normalize_throughput(
        {"NASPipe": 200.0, "GPipe": 50.0, "PipeDream": None}, "NASPipe"
    )
    assert normalized["NASPipe"] == 1.0
    assert normalized["GPipe"] == pytest.approx(0.25)
    assert normalized["PipeDream"] is None
    with pytest.raises(ValueError):
        normalize_throughput({"GPipe": 10.0}, "NASPipe")


def test_subnets_per_hour():
    assert subnets_per_hour(60, 3_600_000.0) == pytest.approx(60.0)
    assert subnets_per_hour(5, 0.0) == 0.0


def test_reproducibility_report_rows():
    report = ReproducibilityReport(space="NLP.c2")
    for gpus in (4, 8):
        report.record("CSP", gpus, loss=1.0, score=20.0, digest="same")
    report.record("BSP", 4, loss=1.1, score=19.0, digest="x")
    report.record("BSP", 8, loss=1.2, score=19.5, digest="y")
    assert report.is_reproducible("CSP")
    assert not report.is_reproducible("BSP")
    assert report.gpu_counts("CSP") == [4, 8]
    assert "reproducible" in report.row("CSP")
    assert "DIVERGENT" in report.row("BSP")

