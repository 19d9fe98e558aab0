"""The performance ledger: one command, six workloads, two clocks.

    python ledger/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1 | --traced] [--row FILE] [--repin]

Each workload runs in fresh child processes of its own, one at a time.
Host time (what a user of the simulator waits for) is measured; virtual
time (what the simulator computes) is checked to repeat exactly, against
``ledger/golden.json`` for the pinned seeds and against itself otherwise.
See ``ledger/README.md`` for the metrics and how to read them.

With ``--workload`` the last line printed is the benchmark contract's
result object and the line before it the ledger row; without it, all six
workloads run and the last line is the ledger row.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
sys.path.insert(0, str(LEDGER))

import machine  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from workloads import canonical  # noqa: E402

#: scratch space inside the checkout (listed in .gitignore)
WORK = ROOT / ".ledger_work"
GOLDEN = LEDGER / "golden.json"
#: seeds whose virtual-clock figures are pinned; 7 is the held-out one
PINNED_SEEDS = (2022, 7)
#: per-layer figures that are results of the simulated system and so are
#: pinned, beside what ``observe()`` returns.  Effort counts (scheduler
#: calls, polls, events emitted, modules imported) repeat exactly on one
#: commit but are left free to fall: lowering them is what later issues do.
PINNED_LAYER_RESULTS = (
    "core.ctx_hit_rate",
    "core.ctx_fetches",
    "core.ctx_evictions",
    "core.sched_ready_pops",
    "engines.tasks",
)
#: fresh processes that only set up; ``setup_s`` is their median
SETUP_PROCESSES = 5
#: fresh interpreters per command-line start-up probe
CLI_PROBES = 3
#: a child that takes longer than this has hung; the contract allows 180 s
CHILD_TIMEOUT_S = 150.0
CONTENDED_CPU_SHARE = 0.9


class HarnessError(Exception):
    """The harness could not measure (as opposed to: measured a failure)."""


def load_benchmark() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn_child(workload: str, seed: int, mode: str, seconds: float, tag: str, spans_out: Optional[Path] = None) -> Dict:
    """Run ``ledger/child.py`` to completion and return its report.

    For a set-up-only child the report gains ``setup_s``, counted from
    just before the process was started, and ``speed``, how fast the
    machine ran meanwhile (``ledger/machine.py``).
    """
    workdir = WORK / f"{workload}-{os.getpid()}-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "report.json"
    argv = [
        sys.executable, str(LEDGER / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--seconds", repr(seconds), "--workdir", str(workdir), "--out", str(out),
    ]
    if spans_out is not None:
        argv += ["--spans-out", str(spans_out)]
    probing = mode == "setup"
    try:
        if probing:
            reference = machine.reference_seconds()
        started = time.monotonic()  # system-wide clock: the child reads it too
        done = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0 or not out.exists():
            raise HarnessError(
                f"child for {workload} ({mode}) exited {done.returncode}:\n{done.stderr[-2000:]}"
            )
        report = json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if probing:
        report["setup_s"] = report["setup_done"] - started
        report["speed"] = machine.speed(reference, machine.reference_seconds())
    return report


def _cli_probes() -> Dict[str, float]:
    """Command-line start-up cost, each figure the median of fresh interpreters."""
    env = child_env()
    probe = (
        "import sys, time\n"
        "begun = time.perf_counter()\n"
        "import repro.cli\n"
        "print(time.perf_counter() - begun,"
        " sum(1 for name in sys.modules if name.split('.')[0] == 'repro'))\n"
    )
    imports, helps, modules = [], [], 0
    for _ in range(CLI_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        seconds, modules = done.stdout.split()
        imports.append(float(seconds))
        begun = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "--help"], cwd=ROOT, env=env,
            capture_output=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        helps.append(time.perf_counter() - begun)
    return {
        "cli.import_s": stats.median(imports),
        "cli.modules_imported": int(modules),
        "cli.help_s": stats.median(helps),
    }


def _pin_failure(pins: Dict, workload: str, seed: int, observed: Dict, layers: Optional[Dict]) -> Optional[str]:
    """How this run contradicts ``golden.json``'s entry for the workload
    (``pins``: seed -> pinned figures), or None."""
    pinned = pins.get(str(seed))
    if pinned is not None:
        why = stats.first_difference(pinned["observed"], observed)
        if why is None and layers is not None:
            why = stats.first_difference(pinned["traced"], layers)
        return why
    check_seed = str(PINNED_SEEDS[0])
    if check_seed not in pins:
        return None
    # an unpinned seed cannot be looked up, so the program also runs the
    # pinned inputs once: a changed virtual-clock result is caught
    # whatever --seed was asked for
    check = _spawn_child(workload, PINNED_SEEDS[0], "check", 0.0, "check")
    why = check.get("error") or stats.first_difference(
        pins[check_seed]["observed"], check["observed"] or {}
    )
    return why and f"on pinned seed {check_seed}: {why}"


def measure(workload: str, seed: int, seconds: float, traced: bool, benchmark: Dict, golden: Optional[Dict]) -> Dict:
    """One workload's figures: ``metrics`` (declared names only),
    ``diagnostics`` (printed, not gated), and the check verdict."""
    if traced:
        spans_out = WORK / "spans" / f"{workload}-seed{seed}.spans"
        report = _spawn_child(workload, seed, "trace", seconds, "trace", spans_out)
    else:
        probes = [
            _spawn_child(workload, seed, "setup", 0.0, f"setup{index}")
            for index in range(SETUP_PROCESSES)
        ]
        report = _spawn_child(workload, seed, "run", seconds, "run")
    if "error" in report:
        return {
            "workload": workload, "metrics": {}, "diagnostics": {}, "attempted": 1,
            "failed": 1, "failures": [report["error"]], "pinned": False, "observed": None,
        }

    raw = report["samples"]
    # host seconds at nominal machine speed (ledger/machine.py)
    samples = [wall / speed for wall, speed in zip(raw["wall_s"], raw["speed"])]
    timing = stats.timing_summary(samples)
    observed = report["observed"] or {}
    diagnostics = {
        "ledger.iters": timing["n"],
        "ledger.iter_s_hi": timing["hi"],
        "ledger.iter_s_hi_pct": timing["hi_pct"],
        "ledger.iter_s_min": timing["min"],
        "ledger.iter_s_iqr": timing["iqr"],
        "ledger.iter_raw_s_p50": stats.median(raw["wall_s"]),
        "ledger.machine_speed": stats.median(raw["speed"]),
        "ledger.stolen_share": sum(raw["stolen_s"]) / sum(raw["wall_s"]),
        "ledger.cpu_share": report["cpu_share"],
    }
    if traced:
        declared = [metric["name"] for metric in benchmark["per_layer"]]
        measured = {
            **report["traced"]["layers"],
            **report["setup_metrics"],
            **{key: value for key, value in observed.items() if key in declared},
            **_cli_probes(),
            **diagnostics,
        }
        undeclared = sorted(set(measured) - set(declared))
        if undeclared:
            raise HarnessError(f"metrics not in BENCHMARK.json per_layer: {undeclared}")
        # a layer the workload never enters did no work and took no time
        metrics = {name: measured.get(name, 0) for name in declared}
        diagnostics = {}
    else:
        setups = [probe["setup_s"] / probe["speed"] for probe in probes]
        metrics = {
            "setup_s": stats.median(setups),
            "iter_s_p50": timing["p50"],
            "work_per_s": report["work"] * len(samples) / sum(samples),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        setup_q1, _, setup_q3 = stats.quartiles(setups)
        diagnostics = {
            "v_makespan_ms": observed.get("v_makespan_ms", 0.0),
            **diagnostics,
            "ledger.setup_s_iqr": setup_q3 - setup_q1,
            "ledger.setup_raw_s": stats.median([probe["setup_s"] for probe in probes]),
        }

    failures = list(report["failures"])
    failed = report["failed"]
    pins = (golden or {}).get("workloads", {}).get(workload, {})
    why = _pin_failure(pins, workload, seed, observed, metrics if traced else None)
    if why:
        # every iteration ran the same program, so every one failed
        failures.insert(0, f"golden mismatch — {why}")
        failed = report["attempted"]
    return {
        "workload": workload,
        "metrics": metrics,
        "diagnostics": diagnostics,
        "attempted": report["attempted"],
        "failed": failed,
        "failures": failures,
        "pinned": str(seed) in pins,
        "observed": observed,
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_workload(result: Dict, benchmark: Dict, seed: int, traced: bool) -> None:
    units = {
        **_units(benchmark), "failed_share": "ratio",
        "ledger.setup_s_iqr": "s", "ledger.setup_raw_s": "s",
    }
    why = next(w.why for w in workloads.WORKLOADS if w.name == result["workload"])
    mode = "traced" if traced else "untraced"
    print(f"== {result['workload']} (seed {seed}, {mode}) — {why}")
    share = result["failed"] / result["attempted"]
    rows = {**result["metrics"], **result["diagnostics"], "failed_share": share}
    for name, value in rows.items():
        print(f"  {name:<32s} {_format(value):>14s} {units[name]}")
    print(f"  ({result['failed']} of {result['attempted']} iterations failed their check)")
    if result["pinned"]:
        print(
            "  virtual-clock figures checked against ledger/golden.json; they are "
            "pinned, not validated against hardware, so no error figure is given"
        )
    else:
        print(
            f"  seed {seed} is not pinned: its virtual-clock figures are checked for "
            "self-consistency (all iterations identical), and the pinned seed's "
            "against ledger/golden.json"
        )
    cpu_share = rows.get("ledger.cpu_share", 1.0)
    stolen_share = rows.get("ledger.stolen_share", 0.0)
    if cpu_share < CONTENDED_CPU_SHARE or stolen_share > machine.STOLEN_SHARE:
        print(
            f"  WARNING: contended run (ledger.cpu_share {cpu_share:.2f}, "
            f"ledger.stolen_share {stolen_share:.3f}): host-time figures are less reliable"
        )
    for failure in result["failures"][:3]:
        print("  FAILED: " + failure.strip().replace("\n", "\n          "))
    sys.stdout.flush()


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def ledger_row(results: List[Dict], seed: int, seconds: float, traced: bool) -> Dict:
    """One canonical row per invocation, for a trajectory file."""
    return {
        "schema": 1,
        "git_sha": _git_sha(),
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "workloads": {
            result["workload"]: {
                "metrics": {**result["metrics"], **result["diagnostics"]},
                "failed_share": result["failed"] / result["attempted"],
                "pinned": result["pinned"],
                "observed_sha256": hashlib.sha256(
                    canonical(result["observed"]).encode()
                ).hexdigest(),
            }
            for result in results
        },
    }


def _units(benchmark: Dict) -> Dict[str, str]:
    return {
        metric["name"]: metric["unit"]
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
    }


def contract_result(result: Dict, benchmark: Dict) -> Dict:
    units = _units(benchmark)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }


# ----------------------------------------------------------------------
# golden
# ----------------------------------------------------------------------
def repin(benchmark: Dict, seconds: float, path: Path) -> None:
    """Re-record every exact figure for the pinned seeds."""
    pinned: Dict[str, Dict] = {}
    for name in workloads.names():
        for seed in PINNED_SEEDS:
            result = measure(name, seed, seconds, True, benchmark, None)
            if result["failed"]:
                raise HarnessError(
                    f"cannot pin {name} seed {seed}: {result['failures'][:1]}"
                )
            pinned.setdefault(name, {})[str(seed)] = {
                "observed": result["observed"],
                "traced": {key: result["metrics"][key] for key in PINNED_LAYER_RESULTS},
            }
            print(f"pinned {name} seed {seed}")
    path.write_text(json.dumps({"schema": 1, "workloads": pinned}, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.names())
    parser.add_argument("--seed", type=int, default=PINNED_SEEDS[0])
    parser.add_argument("--seconds", type=float, help="iteration time to measure per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--row", metavar="FILE", help="append the ledger row to FILE (input of ledger/compare.py)")
    parser.add_argument("--golden", default=str(GOLDEN), help=argparse.SUPPRESS)
    parser.add_argument("--repin", action="store_true", help="re-record golden.json for the pinned seeds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    seconds = args.seconds if args.seconds is not None else float(benchmark["run_seconds"])
    traced = bool(args.trace or args.traced)
    golden_path = Path(args.golden)
    try:
        if args.repin:
            repin(benchmark, min(seconds, 3.0), golden_path)
            return 0
        golden = json.loads(golden_path.read_text()) if golden_path.exists() else None
        selected = [args.workload] if args.workload else workloads.names()
        results = []
        for name in selected:
            result = measure(name, args.seed, seconds, traced, benchmark, golden)
            print_workload(result, benchmark, args.seed, traced)
            results.append(result)
    except (HarnessError, subprocess.SubprocessError) as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 3

    row = canonical(ledger_row(results, args.seed, seconds, traced))
    if args.row:
        with open(args.row, "a") as handle:
            handle.write(row + "\n")
    print(row)
    if args.workload:
        print(json.dumps(contract_result(results[0], benchmark)))
    return 1 if any(result["failed"] for result in results) else 0


if __name__ == "__main__":
    sys.exit(main())
