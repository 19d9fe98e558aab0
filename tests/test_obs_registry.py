"""Registry + compare: byte-stable records and the regression gate.

Two identical runs must serialise to byte-identical registry records
(the whole point of a cross-run registry over a reproducible simulator),
``resolve_run`` must accept both file paths and ``run_id`` prefixes,
and the ``naspipe compare --fail-on-regression`` path must exit non-zero
on an injected 2x makespan regression.
"""

import copy
import importlib
import json

import pytest

from repro.baselines import naspipe
from repro.cli import main
from repro.engines.pipeline import PipelineEngine
from repro.errors import ConfigError
from repro.payload import indented
from repro.obs.registry import (
    append_run,
    check_regression,
    compare_records,
    config_digest,
    format_compare,
    load_runs,
    resolve_run,
    run_record,
)
from repro.seeding import SeedSequenceTree
from repro.sim.cluster import ClusterSpec
from repro.supernet.sampler import SubnetStream
from repro.supernet.supernet import Supernet


def _run(supernet, count=6, gpus=2, batch=16, seed=7):
    stream = SubnetStream.sample(supernet.space, SeedSequenceTree(seed), count)
    engine = PipelineEngine(
        supernet, stream, naspipe(), ClusterSpec(num_gpus=gpus), batch=batch
    )
    return engine.run()


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _config(tmp_path, **extra):
    payload = {
        "space": "NLP.c3",
        "space_overrides": {"num_blocks": 8, "functional_width": 16},
        "system": "NASPipe",
        "num_gpus": 2,
        "subnets": 4,
        "batch": 16,
        "seed": 7,
        **extra,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    return path


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
def test_double_run_records_serialise_identically(tiny_supernet):
    first = run_record(_run(tiny_supernet), git_sha=None)
    second = run_record(_run(tiny_supernet), git_sha=None)
    assert _canonical(first) == _canonical(second)
    assert first["run_id"] == second["run_id"]
    assert first["config_digest"] == second["config_digest"]


def test_run_id_ignores_git_sha(tiny_supernet):
    result = _run(tiny_supernet)
    pinned = run_record(result, git_sha="deadbeef")
    bare = run_record(result, git_sha=None)
    assert pinned["git_sha"] == "deadbeef" and bare["git_sha"] is None
    assert pinned["run_id"] == bare["run_id"]


def test_config_digest_tracks_identity_not_outcome(tiny_supernet):
    result = _run(tiny_supernet)
    a = run_record(result, identity={"cell": 1}, git_sha=None)
    b = run_record(result, identity={"cell": 2}, git_sha=None)
    assert a["config_digest"] != b["config_digest"]
    assert a["run_id"] == b["run_id"]  # same outcome, different identity
    assert a["config_digest"] == config_digest({"cell": 1})


def test_append_load_resolve_roundtrip(tiny_supernet, tmp_path):
    registry = tmp_path / "runs.jsonl"
    record = run_record(_run(tiny_supernet), git_sha=None)
    append_run(record, registry)
    append_run(record, registry)
    lines = registry.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]  # byte-identical lines
    assert load_runs(registry) == [record, record]
    # resolve by run_id prefix against the registry, and by file path
    assert resolve_run(record["run_id"][:8], registry) == record
    assert resolve_run(str(registry)) == record
    with pytest.raises(KeyError):
        resolve_run("ffffffffffffffff", registry)


def test_a_prefix_of_two_run_ids_or_none_at_all_is_refused(tiny_supernet, tmp_path):
    """Was: ``compare f …`` silently took the later of ``f68ce847…`` and
    ``fe7f46df…``, and ``compare "" …`` matched every record."""
    registry = tmp_path / "runs.jsonl"
    record = run_record(_run(tiny_supernet), git_sha=None)
    for run_id, git_sha in (("f68ce847", None), ("fe7f46df", None), ("fe7f46df", "later")):
        append_run(dict(record, run_id=run_id, git_sha=git_sha), registry)
    with pytest.raises(ValueError, match="'f' is ambiguous: f68ce847, fe7f46df"):
        resolve_run("f", registry)
    with pytest.raises(ValueError, match="empty run reference"):
        resolve_run("", registry)
    # one run_id filed twice is not ambiguous: its latest record wins
    assert resolve_run("fe", registry)["git_sha"] == "later"


def test_an_indented_json_record_file_resolves(tiny_supernet, tmp_path):
    """Was: only the last line, ``}``, was parsed — a ``JSONDecodeError``."""
    record = run_record(_run(tiny_supernet), git_sha=None)
    path = tmp_path / "record.json"
    path.write_text(indented(record) + "\n")
    assert resolve_run(str(path)) == record


# ----------------------------------------------------------------------
# compare + regression gate (library level)
# ----------------------------------------------------------------------
def test_compare_identical_records_shows_no_regression(tiny_supernet):
    record = run_record(_run(tiny_supernet), git_sha=None)
    comparison = compare_records(record, record)
    assert comparison["same_config"] is True
    for entry in comparison["fields"].values():
        assert entry["delta"] == 0.0 and entry["ratio"] == 1.0
    assert check_regression(comparison, 100.0) == []
    # the rendering is deterministic too
    assert format_compare(comparison) == format_compare(comparison)


def test_injected_2x_makespan_regression_is_caught(tiny_supernet):
    base = run_record(_run(tiny_supernet), git_sha=None)
    slow = copy.deepcopy(base)
    slow["summary"]["makespan_ms"] *= 2.5
    failures = check_regression(compare_records(base, slow), 100.0)
    assert failures and any("makespan_ms" in line for line in failures)
    # the reverse direction (an improvement) passes the gate
    assert check_regression(compare_records(slow, base), 100.0) == []


# ----------------------------------------------------------------------
# CLI: analyze / compare / trace --summary-json
# ----------------------------------------------------------------------
def test_cli_analyze_writes_deterministic_json(tmp_path, capsys):
    config = _config(tmp_path)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", str(config), "--json", str(out_a)]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out and "what-if projections" in out
    assert main(["analyze", str(config), "--json", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["schema"] == 1 and len(payload["runs"]) == 1
    run = payload["runs"][0]
    assert set(run) == {"num_gpus", "summary", "critical_path", "what_if"}
    assert abs(
        run["critical_path"]["path_ms"] - run["summary"]["makespan_ms"]
    ) < 1e-9


@pytest.mark.parametrize("register, most", [(False, 1), (True, 2)])
def test_cli_analyze_builds_one_model_per_gpu_count(tmp_path, monkeypatch, register, most):
    """``analyze`` hands one run model to the summary, the critical path
    and the what-if, and walks the path once for the summary's stage
    shares and the breakdown; ``--register`` adds the record's one
    reading.  (At the parent: 3 builds and 2 walks, 5 and 4.)"""
    from repro.obs.model import RunModel

    # the module, not the function the package exports under its name
    critical_path = importlib.import_module("repro.obs.critical_path")

    counts = {"builds": 0, "walks": 0}
    build, walk = RunModel.__init__, critical_path._walk

    def counted_build(self, trace):
        counts["builds"] += 1
        build(self, trace)

    def counted_walk(model):
        counts["walks"] += 1
        return walk(model)

    monkeypatch.setattr(RunModel, "__init__", counted_build)
    monkeypatch.setattr(critical_path, "_walk", counted_walk)
    flags = ["--register", "--registry", str(tmp_path / "runs.jsonl")] if register else []
    gpu_counts = ["2", "4"]
    assert main(["analyze", str(_config(tmp_path)), "--sweep-gpus", *gpu_counts, *flags]) == 0
    assert counts == {"builds": most * len(gpu_counts), "walks": most * len(gpu_counts)}


@pytest.mark.parametrize("gpus", ["0", "-2"])
def test_cli_analyze_refuses_a_gpu_count_below_one(tmp_path, capsys, gpus):
    """``--sweep-gpus 0`` is not "unset": it must reach ``ClusterSpec``'s
    own check instead of running at the config's count under a ``D=0``
    label (and, with ``--register``, filing that identity)."""
    registry = tmp_path / "runs.jsonl"
    with pytest.raises(ConfigError, match="need at least 1 GPU"):
        main(
            ["analyze", str(_config(tmp_path)), "--sweep-gpus", gpus,
             "--register", "--registry", str(registry)]
        )
    assert "D=0" not in capsys.readouterr().out
    assert not registry.exists()


def test_cli_analyze_register_then_compare_by_run_id(tmp_path, capsys):
    config = _config(tmp_path)
    registry = tmp_path / "runs.jsonl"
    assert main(
        ["analyze", str(config), "--register", "--registry", str(registry)]
    ) == 0
    assert "registered run" in capsys.readouterr().out
    (record,) = load_runs(registry)
    assert main(
        [
            "compare", record["run_id"][:10], record["run_id"][:10],
            "--registry", str(registry),
            "--fail-on-regression", "100",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "same config: yes" in out
    assert "no regression beyond 100% threshold" in out


def test_cli_compare_fails_nonzero_on_injected_regression(
    tiny_supernet, tmp_path, capsys
):
    base = run_record(_run(tiny_supernet), git_sha=None)
    slow = copy.deepcopy(base)
    slow["summary"]["makespan_ms"] *= 2.5
    file_a, file_b = tmp_path / "base.json", tmp_path / "slow.json"
    file_a.write_text(_canonical(base) + "\n")
    file_b.write_text(_canonical(slow) + "\n")
    with pytest.raises(SystemExit) as excinfo:
        main(
            ["compare", str(file_a), str(file_b),
             "--fail-on-regression", "100"]
        )
    assert "makespan_ms" in str(excinfo.value)
    # without the gate flag the same comparison just reports
    assert main(["compare", str(file_a), str(file_b)]) == 0
    assert "makespan_ms" in capsys.readouterr().out


def test_cli_compare_output_is_byte_deterministic(tmp_path, capsys):
    config = _config(tmp_path)
    registry = tmp_path / "runs.jsonl"
    outputs = []
    for _ in range(2):
        assert main(
            ["analyze", str(config), "--register", "--registry", str(registry)]
        ) == 0
        capsys.readouterr()
    records = load_runs(registry)
    assert len(records) == 2 and _canonical(records[0]) == _canonical(records[1])
    for _ in range(2):
        assert main(
            ["compare", str(registry), str(registry)]
        ) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_trace_summary_json_is_stable(tmp_path, capsys):
    config = _config(tmp_path)
    trace_out = tmp_path / "run.trace.json"
    paths = [tmp_path / "s1.json", tmp_path / "s2.json"]
    for path in paths:
        assert main(
            ["trace", str(config), "--out", str(trace_out),
             "--summary-json", str(path)]
        ) == 0
        capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    summary = json.loads(paths[0].read_text())
    assert summary["makespan_ms"] > 0
    assert all("cp_share" in row for row in summary["per_stage"])


def test_cli_analyze_requires_config():
    with pytest.raises(SystemExit):
        main(["analyze"])


def test_cli_compare_requires_two_refs(tmp_path):
    with pytest.raises(SystemExit):
        main(["compare", str(tmp_path / "only-one.json")])
