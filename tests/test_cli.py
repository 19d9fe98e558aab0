"""CLI tests."""

from pathlib import Path

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


def test_a_faults_schedule_with_no_events_runs_as_its_baseline(tmp_path, capsys):
    # nothing to recover from: the manifest has no fault events, so it
    # runs uninterrupted, and the report is its baseline's
    import json

    config = tmp_path / "faults.json"
    config.write_text(json.dumps({**_DEMO_RUN, "subnets": 8, "faults": []}))
    out_json = tmp_path / "availability.json"
    assert main(["faults", str(config), "--json", str(out_json)]) == 0
    assert "fault schedule: 0 event(s)" in capsys.readouterr().out
    summary = json.loads(out_json.read_text())
    assert (summary["attempts"], summary["checkpoint_cuts"], summary["final_gpus"]) == (1, [], 4)
    assert summary["makespan_ms"] == summary["baseline_makespan_ms"]


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


#: the command surface and the modules it needs to parse and dispatch
_FRONT_DOOR = {"repro", "repro.cli", "repro.payload", "repro.errors"}
#: the functional plane, replay, drawing, the registry and the fault
#: plane: nothing a timing-plane ``trace`` runs
_NOT_ON_THE_TRACE_PATH = (
    "repro.nn.layers", "repro.nn.program", "repro.data",
    "repro.engines.functional_plane", "repro.engines.intra",
    "repro.engines.sequential", "repro.replay",
    "repro.viz", "repro.obs.registry", "repro.obs.whatif", "repro.obs.events",
    "repro.ft",
)
#: name → (what a fresh interpreter runs: a module to import, or ``-m`` and
#: ``python -m repro``'s arguments; the repro modules it may load, or None
#: for any; the packages and modules it must not load)
_IMPORT_CONTRACT = {
    "import repro": (["repro"], {"repro"}, ()),
    "import repro.cli": (["repro.cli"], _FRONT_DOOR, ()),
    "help": (["-m", "--help"], _FRONT_DOOR, ()),
    "trace": (
        ["-m", "trace", "examples/trace_demo.json", "--out", "{tmp}/trace.json"],
        None,
        _NOT_ON_THE_TRACE_PATH,
    ),
}
#: prints, as its last stdout line, the repro modules loaded by the time
#: the import or the ``python -m repro`` run is over
_PROBE = """
import json, runpy, sys
target, *args = sys.argv[1:]
try:
    if target == "-m":
        sys.argv = ["naspipe", *args]
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    else:
        __import__(target)
finally:
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


@pytest.mark.parametrize("case", sorted(_IMPORT_CONTRACT))
def test_the_import_contract(case, tmp_path):
    """``import repro`` loads only ``repro``; the front door loads only
    what parses a command line; ``trace`` (the timing plane) never loads
    the functional plane or the fault-tolerance plane."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    argv, allowed, forbidden = _IMPORT_CONTRACT[case]
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *(arg.format(tmp=tmp_path) for arg in argv)],
        capture_output=True,
        text=True,
        check=True,
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert "repro" in loaded
    if allowed is not None:
        assert loaded <= allowed, sorted(loaded - allowed)
    assert not sorted(
        name for name in loaded for prefix in forbidden
        if name == prefix or name.startswith(prefix + ".")
    )


_BAD_RUN_CONFIG = [
    ("subnets", 0), ("subnets", 2.7), ("subnets", True), ("num_gpus", 0),
    ("num_gpus", True), ("num_gpus", "4"), ("seed", 7.9), ("seed", "7"),
    ("seed", False),
]


@pytest.mark.parametrize("command", ["trace", "analyze"])
@pytest.mark.parametrize("key,value", _BAD_RUN_CONFIG)
def test_run_config_integers_are_checked_not_coerced(
    command, key, value, tmp_path, monkeypatch, capsys
):
    """``"subnets": 0`` used to print a summary of an empty run and
    ``"subnets": 2.7`` ran 2 subnets; now the key is named before any run."""
    import json

    from repro.errors import ConfigError

    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"space": "NLP.c3", "num_gpus": 4, "subnets": 8, key: value})
    )
    with pytest.raises(ConfigError, match=f"run config: {key} must be an integer"):
        main([command, str(config)])
    assert capsys.readouterr().out == "" and list(tmp_path.iterdir()) == [config]


_READS_A_CONFIG_FILE = sorted(_CONFIG_COMMANDS - {"compare"})


@pytest.mark.parametrize("command", _READS_A_CONFIG_FILE)
def test_a_missing_or_malformed_config_file_is_one_line_and_exit_2(
    command, tmp_path, capsys
):
    """Used to end in a ``FileNotFoundError`` / ``JSONDecodeError``
    traceback (exit 1)."""
    missing = tmp_path / "missing.json"
    broken = tmp_path / "broken.json"
    broken.write_text('{"space": "NLP.c3",\n')
    for path, problem in (
        (missing, f"{missing}: No such file or directory"),
        (broken, f"{broken}:2:1: Expecting property name enclosed in double quotes"),
    ):
        with pytest.raises(SystemExit) as exit_:
            main([command, str(path)])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"naspipe: error: cannot read config {problem}"]


# ----------------------------------------------------------------------
# a command that prints a verdict exits on it
# ----------------------------------------------------------------------
_EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_monitor_refuses_a_missing_rules_file_and_a_config_that_is_no_object(tmp_path, capsys):
    """A missing ``--rules`` file used to end in a ``FileNotFoundError``
    traceback and a config of ``5`` in a ``TypeError`` (both exit 1)."""
    from repro.cli import run

    missing, config = tmp_path / "missing.json", tmp_path / "five.json"
    config.write_text("5")
    with pytest.raises(SystemExit) as exit_:
        run(["monitor", str(_EXAMPLES / "serving_demo.json"), "--rules", str(missing)])
    assert exit_.value.code == 2
    assert run(["monitor", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"naspipe: error: cannot read config {missing}: No such file or directory",
        "naspipe: error: serving must be an object, got int",
    ]


def test_faults_exits_nonzero_when_it_prints_diverged(monkeypatch, capsys):
    """Was: "parameter digest DIVERGED from fault-free run" and exit 0."""
    import repro.ft

    run_with_recovery = repro.ft.run_with_recovery

    def digest_diverges(*args, **kwargs):
        faulted = run_with_recovery(*args, **kwargs)
        faulted.digest = "0" * 64
        return faulted

    monkeypatch.setattr(repro.ft, "run_with_recovery", digest_diverges)
    with pytest.raises(SystemExit, match="diverged from the fault-free run"):
        main(["faults", str(_EXAMPLES / "faults_demo.json")])
    assert "parameter digest    DIVERGED from fault-free run" in capsys.readouterr().out


def test_monitor_exits_nonzero_when_metering_does_not_reconcile(monkeypatch, capsys):
    """Was: "reconciliation: … MISMATCH" and exit 0."""
    from repro.service.manager import ClusterManager

    ledger = ClusterManager.leased_slot_ms_total
    monkeypatch.setattr(
        ClusterManager, "leased_slot_ms_total", lambda self: ledger(self) + 5.0
    )
    with pytest.raises(SystemExit, match="metering does not reconcile"):
        main(["monitor", str(_EXAMPLES / "serve_demo.json")])
    assert ") MISMATCH" in capsys.readouterr().out


_DEMO_RUN = {"space": "NLP.c3", "space_overrides": {"num_blocks": 8, "functional_width": 16}}
#: (command, config, bad value, the refusal) — each used to run: a sweep
#: of untrained runs printed PASS, a bool or a string became a count, a
#: zero restart size or a negative MTBF was silently replaced, and a
#: zero checkpoint interval ended in a ValueError traceback
_BAD_VALUES = [
    ("chaos", {"gpus": [2], "subnets": 0}, "subnets must be an integer >= 1, got 0"),
    ("chaos", {"gpus": [2], "subnets": True}, "subnets must be an integer >= 1, got True"),
    ("chaos", {"gpus": [2], "subnets": "5"}, "subnets must be an integer >= 1, got '5'"),
    ("chaos", {"gpus": [2, 0], "subnets": 4}, r"gpus\[1\] must be an integer >= 1, got 0"),
    ("chaos", {"num_gpus": 2.5, "subnets": 4}, "num_gpus must be an integer >= 1, got 2.5"),
    (
        "chaos",
        {"gpus": [2], "subnets": 4, "mtbf_fraction": -1},
        "mtbf_fraction must be a finite number > 0, got -1",
    ),
    ("faults", {"subnets": 0}, "subnets must be an integer >= 1, got 0"),
    ("faults", {"subnets": 4, "num_gpus": "4"}, "num_gpus must be an integer >= 1, got '4'"),
    ("faults", {"subnets": 4, "recovery_gpus": 0}, "recovery_gpus must be an integer >= 1, got 0"),
    (
        "faults",
        {"subnets": 4, "checkpoint_interval": 0},
        "checkpoint_interval must be an integer >= 1, got 0",
    ),
    ("faults", {"subnets": 4, "mtbf_ms": -1}, "mtbf_ms must be a finite number > 0, got -1"),
    ("chaos", {"gpus": [2], "subnets": 4, "stall_ms": "20"}, "stall_ms must be a finite number > 0, got '20'"),
    (
        "chaos",
        {"gpus": [2], "subnets": 4, "nic_slowdown": True},
        "nic_slowdown must be a finite number > 0, got True",
    ),
]


@pytest.mark.parametrize("command,values,refusal", _BAD_VALUES)
def test_chaos_and_faults_numbers_are_checked_not_coerced(
    command, values, refusal, tmp_path, monkeypatch, capsys
):
    import json

    from repro.errors import ConfigError

    monkeypatch.chdir(tmp_path)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**_DEMO_RUN, **values}))
    argv = [command, str(config), *(["--seeds", "1"] if command == "chaos" else [])]
    with pytest.raises(ConfigError, match=f"^{command} config: {refusal}$"):
        main(argv)
    assert capsys.readouterr().out == "" and list(tmp_path.iterdir()) == [config]


def test_a_bad_config_value_is_one_line_and_exit_2(tmp_path, capsys):
    """The ``naspipe`` program turns a refused value into a usage error,
    like a bad flag or an unreadable file — not a traceback."""
    import json

    from repro.cli import run

    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**_DEMO_RUN, "subnets": 0}))
    assert run(["chaos", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "naspipe: error: chaos config: subnets must be an integer >= 1, got 0"
    ]


#: command[/case] → (example config, keys set in it, flags that write a
#: file — ``{out}`` and ``{rules}`` are filled in —, the one stderr
#: line); each ran at the parent: a 2.7-GPU tenant leased 2, a bool
#: scenario count swept one storm and printed PASS, ``"no"`` turned the
#: predictor on, ``"3"`` ended in a TypeError traceback, and a zero-block
#: space, a job with no space, a bare slot count and a window that is no
#: object each ended in a traceback
_REFUSED = {
    "trace": (
        "trace_demo.json",
        {"overrides": {"predictor": "no"}},
        ["--out", "{out}"],
        "run config.overrides: predictor must be true or false, got 'no'",
    ),
    "trace/num_blocks": (
        "trace_demo.json",
        {"space_overrides": {"num_blocks": 0}},
        ["--out", "{out}"],
        "run config.space_overrides: num_blocks must be >= 1, got 0",
    ),
    "analyze": (
        "trace_demo.json",
        {"overrides": {"inject_window": "3"}},
        ["--json", "{out}"],
        "run config.overrides: inject_window must be an integer, got '3'",
    ),
    "faults": (
        "faults_demo.json",
        {"faults": [{"kind": "gpu_crash", "time_ms": "700", "target": 1}]},
        ["--json", "{out}"],
        "fault event 0: time_ms must be a finite number, got '700'",
    ),
    "chaos": (
        "chaos_demo.json",
        {"stall_ms": "20"},
        ["--json", "{out}", "--seeds", "1"],
        "chaos config: stall_ms must be a finite number > 0, got '20'",
    ),
    "chaos-fleet": (
        "chaos_fleet_demo.json",
        {"scenarios": True},
        ["--json", "{out}"],
        "fleet config: scenarios must be an integer >= 1, got True",
    ),
    "chaos-fleet/fleet_slots": (
        "chaos_fleet_demo.json",
        {"fleet_slots": 8},
        ["--json", "{out}"],
        "fleet config: fleet_slots must be an array, got 8",
    ),
    "serve": (
        "serve_demo.json",
        {"quantum": 6.9},
        ["--json", "{out}"],
        "service config: quantum must be an integer >= 1, got 6.9",
    ),
    "serve/space": (
        "serve_demo.json",
        {"jobs": [{"name": "a", "subnets": 4}]},
        ["--json", "{out}"],
        "jobs[0]: missing keys ['space']",
    ),
    "monitor": (
        "serving_demo.json",
        {},
        ["--rules", "{rules}", "--json", "{out}"],
        "alert rule 'r': threshold must be a finite number, got '5'",
    ),
    "monitor/windows": (
        "serving_demo.json",
        {},
        ["--rules", "{rules}", "--json", "{out}"],
        "alert rule 'r'.windows[0] must be an object, got int",
    ),
    "bench-serving": (
        "serving_demo.json",
        {"num_gpus": 2.7},
        ["--json", "{out}"],
        "serving: num_gpus must be an integer, got 2.7",
    ),
    # each below was read by hand at the parent: a traceback (exit 1), a
    # refusal under another path, or a value taken as it came
    "serve/gpu_speed_factors": (
        "serve_demo.json",
        {"gpu_speed_factors": [1, 1, 1, 1, 1, 1, 1, "x"]},
        ["--json", "{out}"],
        "service config: gpu_speed_factors[7] must be a finite number, got 'x'",
    ),
    "serve/jobs": (
        "serve_demo.json",
        {"jobs": {"a": 1}},
        ["--json", "{out}"],
        "service config: jobs must be an array, got {'a': 1}",
    ),
    "serve/faults": (
        "serve_demo.json",
        {"faults": {"kind": "slot_preempt", "time_ms": 1.0}},
        ["--json", "{out}"],
        "service config: faults must be an array, got {'kind': 'slot_preempt', 'time_ms': 1.0}",
    ),
    "serve/stream_kind": (
        "serve_demo.json",
        {"jobs": [{"name": "a", "space": "NLP.c3", "stream_kind": "evolution"}]},
        ["--json", "{out}"],
        "jobs[0]: stream_kind must be one of ['spos', 'generational', 'fair'], got 'evolution'",
    ),
    # a bad service or fleet value raised a ServiceError traceback (exit 1)
    "serve/quantum": (
        "serve_demo.json",
        {"quantum": 0},
        ["--json", "{out}"],
        "service config: quantum must be an integer >= 1, got 0",
    ),
    "serve/requeue_backoff_ms": (
        "serve_demo.json",
        {"requeue_backoff_ms": 0},
        ["--json", "{out}"],
        "service config: requeue_backoff_ms must be a finite number > 0, got 0",
    ),
    "serve/subnets": (
        "serve_demo.json",
        {"jobs": [{"name": "a", "space": "NLP.c3", "subnets": 0}]},
        ["--json", "{out}"],
        "jobs[0]: subnets must be an integer >= 1, got 0",
    ),
    "serve/priority": (
        "serve_demo.json",
        {"jobs": [{"name": "a", "space": "NLP.c3", "priority": 0}]},
        ["--json", "{out}"],
        "jobs[0]: priority must be an integer >= 1, got 0",
    ),
    "serve/min_gpus": (
        "serve_demo.json",
        {"jobs": [{"name": "a", "space": "NLP.c3", "min_gpus": 0}]},
        ["--json", "{out}"],
        "jobs[0]: min_gpus must be an integer >= 1, got 0",
    ),
    "serve/max_gpus": (
        "serve_demo.json",
        {"jobs": [{"name": "a", "space": "NLP.c3", "min_gpus": 4, "max_gpus": 2}]},
        ["--json", "{out}"],
        "jobs[0]: a: need 1 <= min_gpus <= max_gpus, got [4, 2]",
    ),
    "serve/name": (
        "serve_demo.json",
        {"jobs": [{"name": "", "space": "NLP.c3"}]},
        ["--json", "{out}"],
        "jobs[0]: a job needs a non-empty name",
    ),
    "serve/no_jobs": (
        "serve_demo.json",
        {"jobs": []},
        ["--json", "{out}"],
        'service config: needs a non-empty "jobs" list',
    ),
    "chaos-fleet/max_restarts": (
        "chaos_fleet_demo.json",
        {"max_restarts": -1},
        ["--json", "{out}"],
        "fleet config: max_restarts must be an integer >= 0, got -1",
    ),
    "chaos-fleet/serving": (
        "chaos_fleet_demo.json",
        {"serving": [1]},
        ["--json", "{out}"],
        "fleet config: serving must be an object, got [1]",
    ),
    "faults/checkpoint_dir": (
        "faults_demo.json",
        {"checkpoint_dir": 5},
        ["--json", "{out}"],
        "faults config: checkpoint_dir must be a string, got 5",
    ),
    "monitor/rules": (
        "serving_demo.json",
        {},
        ["--rules", "{rules}", "--json", "{out}"],
        "alert rules must be an object, got int",
    ),
    "monitor/rulez": (
        "serving_demo.json",
        {},
        ["--rules", "{rules}", "--json", "{out}"],
        "alert rules: unknown keys ['rulez']; expected a subset of ['rules']",
    ),
    # a rules file of null ended in a TypeError (exit 1), and one holding
    # a string was read as a list of rules, one per character
    "monitor/null": (
        "serving_demo.json",
        {},
        ["--rules", "{rules}", "--json", "{out}"],
        "alert rules must be an object, got NoneType",
    ),
    "monitor/path": (
        "serving_demo.json",
        {},
        ["--rules", "{rules}", "--json", "{out}"],
        "alert rules must be an object, got str",
    ),
    "trace/label": (
        "trace_demo.json",
        {"label": 7},
        ["--out", "{out}"],
        "run config: label must be a string, got 7",
    ),
    "trace/batch": (
        "trace_demo.json",
        {"batch": "32"},
        ["--out", "{out}"],
        "run config: batch must be an integer, got '32'",
    ),
    "trace/stream_kind": (
        "trace_demo.json",
        {"stream_kind": "evolution"},
        ["--out", "{out}"],
        "run config: stream_kind must be one of ['spos', 'generational', 'fair'], got 'evolution'",
    ),
}


#: the ``--rules`` file of each monitor case
_RULES = {
    "monitor": [{"name": "r", "metric": "fleet_down_slots", "threshold": "5"}],
    "monitor/windows": [
        {"name": "r", "kind": "burn_rate", "good": "serving_slo_good_total",
         "bad": "serving_slo_bad_total", "windows": [5]}
    ],
    "monitor/rules": 5,
    "monitor/rulez": {"rulez": [{"name": "r", "metric": "fleet_down_slots"}]},
    "monitor/null": None,
    "monitor/path": "x.json",
}


@pytest.mark.parametrize("command", sorted(_REFUSED))
def test_a_value_of_the_wrong_type_is_one_line_and_exit_2(command, tmp_path, capsys):
    import json

    from repro.cli import run

    example, values, flags, line = _REFUSED[command]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**json.loads((_EXAMPLES / example).read_text()), **values}))
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(_RULES.get(command, [])))
    out = tmp_path / "out.json"
    argv = [command.split("/")[0], str(config), *(f.format(out=out, rules=rules) for f in flags)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"naspipe: error: {line}"]
    assert not out.exists()
