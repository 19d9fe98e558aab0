"""Metrics helpers and Retiarii parameter-server baseline tests."""

import pytest

from repro.engines.functional_plane import FunctionalPlane
from repro.baselines import RetiariiParameterServer
from repro.metrics.bubbles import gpipe_theory_bubble, pipeline_theory_bubble
from repro.metrics.reproducibility import ReproducibilityReport
from repro.metrics.throughput import (
    normalize_throughput,
    speedup_table,
    subnets_per_hour,
)
from repro.seeding import SeedSequenceTree
from repro.supernet.sampler import SubnetStream
from repro.supernet.supernet import Supernet


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


def test_speedup_table():
    rows = [
        ("NLP.c1", {"NASPipe": 100.0, "GPipe": 20.0}),
        ("NLP.c0", {"NASPipe": 100.0, "GPipe": None}),
    ]
    table = speedup_table(rows, "NASPipe", "GPipe")
    assert table[0] == ("NLP.c1", pytest.approx(5.0))
    assert table[1] == ("NLP.c0", None)


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


def test_retiarii_ps_trains_and_reports(tiny_supernet):
    seeds = SeedSequenceTree(6)
    stream = SubnetStream.sample(tiny_supernet.space, seeds, 12)
    plane = FunctionalPlane(tiny_supernet, seeds, functional_batch=4)
    result = RetiariiParameterServer(
        tiny_supernet, stream, plane, num_workers=4, batch=32
    ).run()
    assert result.subnets_completed == 12
    assert result.makespan_ms > 0
    assert 0.0 <= min(1.0, result.ps_busy_ms / result.makespan_ms) <= 1.0
    assert result.digest is not None


def test_retiarii_ps_bulk_semantics_differ_from_sequential(tiny_supernet):
    """The PS's bulk updates read stale snapshots: its result diverges
    from sequential training — the non-reproducibility Retiarii shares
    with BSP (paper §2.3)."""
    from repro.engines.sequential import SequentialEngine

    def stream_and_plane():
        seeds = SeedSequenceTree(6)
        return (
            SubnetStream.sample(tiny_supernet.space, seeds, 12),
            FunctionalPlane(tiny_supernet, seeds, functional_batch=4),
        )

    stream, plane = stream_and_plane()
    sequential = SequentialEngine(tiny_supernet, stream, plane).run()
    stream, plane = stream_and_plane()
    ps4 = RetiariiParameterServer(
        tiny_supernet, stream, plane, num_workers=4, batch=32
    ).run()
    stream, plane = stream_and_plane()
    ps8 = RetiariiParameterServer(
        tiny_supernet, stream, plane, num_workers=8, batch=32
    ).run()
    assert ps4.digest != sequential.digest
    assert ps4.digest != ps8.digest
