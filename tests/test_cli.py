"""CLI tests."""

import pytest

from repro.cli import main


def test_list_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "figure5" in out and "table3" in out


def test_run_table5(capsys):
    assert main(["table5"]) == 0
    out = capsys.readouterr().out
    assert "conv3x1" in out


def test_run_table4_with_seed(capsys):
    assert main(["table4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "2F-2B-5F-5B-7F-7B" in out


def test_spaces_filter(capsys):
    assert main(["dag-bound", "--spaces", "NLP.c3"]) == 0
    out = capsys.readouterr().out
    assert "NLP.c3" in out and "NLP.c1" not in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["figure9"])


def test_csv_export_flag(tmp_path, capsys):
    assert main(["table5", "--csv", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "csv written" in out
    csv_text = (tmp_path / "table5.csv").read_text()
    assert csv_text.startswith("domain,layer")


def test_scheduler_cost_command(capsys):
    assert main(["scheduler-cost"]) == 0
    assert "10 ms bound" in capsys.readouterr().out


def test_repro_check_command(capsys):
    assert main(["repro-check"]) == 0
    out = capsys.readouterr().out
    assert "PASS: digests match" in out
    assert "FAIL" not in out


def test_repro_check_exits_nonzero_when_it_prints_fail(monkeypatch, capsys):
    """Was: the report said ``FAIL: … != …`` and the command exited 0,
    so a CI step running it could never fail."""
    import repro.replay

    record_run = repro.replay.record_run

    def one_gpu_diverges(*args, **kwargs):
        manifest = record_run(*args, **kwargs)
        if kwargs["num_gpus"] == 1:
            manifest.digest = "0" * 64
        return manifest

    monkeypatch.setattr(repro.replay, "record_run", one_gpu_diverges)
    with pytest.raises(SystemExit, match="reproducibility self-check failed"):
        main(["repro-check"])
    assert "FAIL: " in capsys.readouterr().out


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "NASPipe demo" in out
    assert "GPU0" in out and "fwd-start" in out


def test_faults_command(tmp_path, capsys):
    import json

    config = tmp_path / "faults.json"
    config.write_text(
        json.dumps(
            {
                "space": "NLP.c3",
                "space_overrides": {"num_blocks": 8, "functional_width": 16},
                "system": "NASPipe",
                "num_gpus": 4,
                "subnets": 16,
                "seed": 11,
                "checkpoint_interval": 8,
                "recovery_gpus": 8,
                "faults": [
                    {"kind": "gpu_crash", "time_ms": 400.0, "target": 1}
                ],
            }
        )
    )
    out_json = tmp_path / "availability.json"
    assert main(["faults", str(config), "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "IDENTICAL to fault-free run" in out
    assert "goodput" in out
    summary = json.loads(out_json.read_text())
    assert summary["digest_matches_baseline"] is True
    assert summary["crashes"] == 1
    assert summary["final_gpus"] == 8


def test_faults_command_requires_config():
    with pytest.raises(SystemExit):
        main(["faults"])


def test_chaos_command(tmp_path, capsys):
    import json

    config = tmp_path / "chaos.json"
    config.write_text(
        json.dumps(
            {
                "space": "NLP.c3",
                "space_overrides": {"num_blocks": 8, "functional_width": 16},
                "system": "NASPipe",
                "gpus": [2],
                "subnets": 8,
                "seed": 7,
            }
        )
    )
    out_json = tmp_path / "report.json"
    assert main(["chaos", str(config), "--seeds", "2", "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "chaos sweep" in out
    assert "PASS" in out
    report = json.loads(out_json.read_text())
    assert report["ok"] is True
    assert report["total_scenarios"] == 2
    assert all(row["digest_ok"] for row in report["scenarios"])


def test_chaos_seeds_zero_is_an_error_not_a_pass(tmp_path, capsys):
    """A gate that ran no scenario must not print PASS and exit 0."""
    from repro.errors import ConfigError

    config = tmp_path / "chaos.json"
    config.write_text('{"space": "NLP.c3", "gpus": [2], "subnets": 8}')
    for seeds in ("0", "-3"):
        with pytest.raises(ConfigError, match="scenarios"):
            main(["chaos", str(config), "--seeds", seeds])
    assert "PASS" not in capsys.readouterr().out


def test_chaos_command_requires_config():
    with pytest.raises(SystemExit):
        main(["chaos"])


def test_chaos_fleet_command(tmp_path, capsys):
    import json

    config = tmp_path / "fleet.json"
    config.write_text(
        json.dumps(
            {
                "fleet_slots": [6],
                "scenarios": 1,
                "seed": 7,
                "storm_mtbf_fraction": 0.3,
                "slots_per_node": 2,
                "quantum": 4,
                "resize_cost_ms": 20.0,
                "max_restarts": 3,
                "requeue_backoff_ms": 20.0,
                "serving": {
                    "space": "NLP.c3",
                    "space_overrides": {
                        "num_blocks": 8,
                        "functional_width": 16,
                    },
                    "num_gpus": 2,
                    "eval_batch": 4,
                    "requests": 30,
                    "rate_rps": 60.0,
                    "seed": 2022,
                    "max_batch": 4,
                    "queue_bound": 12,
                    "slo_ms": 400.0,
                },
                "jobs": [
                    {
                        "name": "elastic",
                        "space": "NLP.c3",
                        "space_overrides": {
                            "num_blocks": 8,
                            "functional_width": 16,
                        },
                        "system": "NASPipe",
                        "subnets": 6,
                        "seed": 2022,
                        "min_gpus": 2,
                        "max_gpus": 4,
                    }
                ],
            }
        )
    )
    out_json = tmp_path / "fleet_report.json"
    assert main(["chaos-fleet", str(config), "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "fleet chaos sweep" in out
    assert "PASS" in out
    report = json.loads(out_json.read_text())
    assert report["ok"] is True
    assert report["total_scenarios"] == 1
    # the canonical file must be byte-stable across runs
    first = out_json.read_text()
    assert main(["chaos-fleet", str(config), "--json", str(out_json)]) == 0
    capsys.readouterr()
    assert out_json.read_text() == first


def test_chaos_fleet_command_requires_config():
    with pytest.raises(SystemExit):
        main(["chaos-fleet"])


# ----------------------------------------------------------------------
# one front door: each command accepts exactly the options it reads
# ----------------------------------------------------------------------
#: the whole CLI surface: 26 commands, 60 accepted flag×command pairs
_FLAGS = {
    "figure1": {"--seed"},
    "figure4": {"--spaces", "--seed"},
    "figure5": {"--scale", "--spaces", "--csv"},
    "figure6": {"--scale", "--spaces", "--csv"},
    "figure7": {"--scale", "--csv"},
    "table2": {"--scale", "--spaces", "--scores", "--csv"},
    "table3": {"--spaces", "--seed"},
    "table4": {"--seed"},
    "table5": {"--csv"},
    "dag-bound": {"--spaces", "--csv"},
    "scheduler-cost": {"--seed", "--csv"},
    "ranking": {"--seed", "--csv"},
    "straggler": {"--seed"},
    "repro-check": {"--seed"},
    "demo": {"--seed"},
    "trace": {"--seed", "--out", "--summary", "--summary-json"},
    "analyze": {
        "--seed", "--sweep-gpus", "--jobs", "--json", "--register", "--registry"
    },
    "compare": {"--registry", "--fail-on-regression"},
    "faults": {"--seed", "--json"},
    "chaos": {"--seed", "--seeds", "--jobs", "--json"},
    "chaos-fleet": {"--json"},
    "serve": {"--verify", "--json"},
    "bench-serving": {"--json"},
    "monitor": {"--rules", "--interval", "--out", "--prom", "--json"},
    "all": {"--scale", "--spaces", "--seed", "--csv", "--scores"},
    "list": set(),
}
_CONFIG_COMMANDS = {
    "trace", "analyze", "compare", "faults", "chaos", "chaos-fleet", "serve",
    "bench-serving", "monitor",
}


def test_list_prints_the_24_names_in_order(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out.split() == [
        "figure1", "figure4", "figure5", "figure6", "figure7", "table2",
        "table3", "table4", "table5", "dag-bound", "scheduler-cost",
        "ranking", "straggler", "repro-check", "demo", "trace", "analyze",
        "compare", "faults", "chaos", "chaos-fleet", "serve", "bench-serving",
        "monitor",
    ]
    assert sum(len(flags) for flags in _FLAGS.values()) == 60


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_help_names_exactly_the_commands_own_flags(command, capsys):
    import re

    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z-]*", text)) == _FLAGS[command] | {"--help"}
    usage = text[: text.index("\n\n")]
    assert (" config" in usage) == (command in _CONFIG_COMMANDS)
    assert (" config2" in usage) == (command == "compare")


@pytest.mark.parametrize(
    "argv",
    [
        # the four accepted-but-ignored invocations of the flat namespace
        ["figure5", "--seed", "7"],
        ["chaos-fleet", "cfg.json", "--jobs", "4", "--seeds", "99", "--scale", "paper"],
        ["table5", "bogus.json", "--verify", "--prom", "x", "--fail-on-regression", "3"],
        # a sample of the other 482 pairs
        ["chaos-fleet", "cfg.json", "--jobs", "4"],
        ["serve", "cfg.json", "--baseline", "x"],
        ["table5", "extra.json"],
        ["trace", "cfg.json", "--seeds", "3"],
        ["monitor", "cfg.json", "--sweep-gpus", "2"],
        ["all", "--json", "x"],
        ["list", "--seed", "1"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_monitor_interval_zero_is_rejected_by_the_scraper():
    from pathlib import Path

    from repro.errors import ConfigError

    config = Path(__file__).parent.parent / "examples" / "serve_demo.json"
    with pytest.raises(ConfigError, match="scrape_interval_ms must be > 0"):
        main(["monitor", str(config), "--interval", "0"])


@pytest.mark.parametrize("interval", ["nan", "inf"])
def test_monitor_refuses_a_non_finite_interval_before_running(interval):
    from pathlib import Path

    from repro.errors import ConfigError

    config = Path(__file__).parent.parent / "examples" / "serve_demo.json"
    with pytest.raises(ConfigError, match=f"must be > 0 and finite, got {interval}"):
        main(["monitor", str(config), "--interval", interval])


def test_monitor_refuses_a_rule_that_can_never_fire(tmp_path):
    import json
    from pathlib import Path

    from repro.errors import ConfigError

    config = Path(__file__).parent.parent / "examples" / "serve_demo.json"
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [
        {"name": "deep", "metric": "engine_queue_depth", "op": ">", "threshold": 4}
    ]}))
    with pytest.raises(ConfigError, match="alert rule 'deep': 'engine_queue_depth' can never match"):
        main(["monitor", str(config), "--rules", str(rules)])


def test_chaos_jobs_zero_runs_serially(tmp_path, capsys):
    """``--jobs N`` with N <= 1 is the in-process sweep: same report."""
    import json

    config = tmp_path / "chaos.json"
    config.write_text(
        json.dumps(
            {
                "space": "NLP.c3",
                "space_overrides": {"num_blocks": 8, "functional_width": 16},
                "gpus": [2],
                "subnets": 8,
                "seed": 7,
            }
        )
    )
    reports = []
    for name, jobs in (("default", []), ("zero", ["--jobs", "0"])):
        out = tmp_path / f"{name}.json"
        argv = ["chaos", str(config), "--seeds", "2", "--json", str(out)]
        assert main(argv + jobs) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_all_accepts_the_experiment_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["all", "--scale", "paper", "--spaces", "NLP.c1", "--seed", "3",
         "--csv", "out", "--scores"]
    )
    assert (args.scale, args.spaces, args.seed, args.csv, args.scores) == (
        "paper", ["NLP.c1"], 3, "out", True
    )


def test_experiments_table_matches_the_modules():
    """A flag exists iff ``run()`` takes what it feeds."""
    import importlib
    import inspect

    from repro.cli import _EXPERIMENTS, _RUN_INPUTS

    for name, experiment in _EXPERIMENTS.items():
        module = importlib.import_module(
            "repro.experiments." + name.replace("-", "_")
        )
        inspect.signature(module.run).bind(
            **{key: None for key in experiment.takes}
        )
        assert callable(module.format_text)
        fed = {_RUN_INPUTS[key][0] for key in experiment.takes}
        if experiment.rows:
            fed.add("--csv")
        assert fed == _FLAGS[name]


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "trace_demo.json", "--out"],
        ["trace", "trace_demo.json", "--summary-json"],
        ["serve", "serve_demo.json", "--json"],
        ["monitor", "serve_demo.json", "--prom"],
    ],
)
def test_an_output_path_in_a_missing_directory_is_refused_before_the_run(
    argv, tmp_path, capsys
):
    """Used to run the whole simulation, then die with a
    ``FileNotFoundError`` traceback (exit 1); now the parser refuses it
    (exit 2), and a handler only runs once parsing is done."""
    from pathlib import Path

    command, example, option = argv
    config = Path(__file__).resolve().parent.parent / "examples" / example
    missing = tmp_path / "no-such-dir" / "out.json"
    with pytest.raises(SystemExit) as exit_:
        main([command, str(config), option, str(missing)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: directory {str(missing.parent)!r} does not exist" in err


@pytest.mark.parametrize("batch", [0, -8, 2.5, True])
def test_trace_rejects_a_batch_that_is_not_a_positive_integer(tmp_path, capsys, batch):
    """``"batch": 0`` used to print a full summary of a 0.0 samples/s run."""
    import json

    from repro.errors import ConfigError

    config = tmp_path / "trace.json"
    config.write_text(
        json.dumps({"space": "NLP.c3", "num_gpus": 4, "subnets": 8, "batch": batch})
    )
    out = tmp_path / "run.trace.json"
    with pytest.raises(ConfigError, match="batch"):
        main(["trace", str(config), "--out", str(out), "--summary"])
    assert capsys.readouterr().out == "" and not out.exists()


def test_trace_never_imports_the_fault_tolerance_plane(tmp_path):
    """An unarmed engine builds no degradation manager, so a fresh
    ``python -m repro trace`` keeps ``repro.ft`` off its import path."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [
            sys.executable, "-X", "importtime", "-m", "repro", "trace",
            str(root / "examples" / "trace_demo.json"),
            "--out", str(tmp_path / "trace.json"),
        ],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "repro.cli" in imported
    assert [name for name in imported if name.startswith("repro.ft")] == []
