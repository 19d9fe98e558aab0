#!/usr/bin/env python3
"""Referee a claimed gain: alternating parent/change ledger runs, judged.

    python tools/ledger_pairs.py --parent REV --workload W [--metric M]
                                 [--pairs 10] [--seed N] [--seconds S] [--guards]

``ledger/README.md`` § "Claiming a gain later", steps 3-5, as one
command.  Both sides run in new directories under one temporary root,
as the benchmark driver runs them: the parent revision exported with
``git archive`` (nothing in ``.git`` is touched, nothing is left to
prune) and the working tree of this checkout copied file by file
(tracked and untracked-but-not-ignored, so uncommitted edits are what is
judged).  A fresh interpreter importing ``repro`` from this checkout has
been measured 15% faster than the same files imported from a copy, which
would hand ``setup_s`` and ``cli_cold`` to whichever side stays at home.
``ledger/run.py --workload W --row …`` then alternates between the two
(``A B B A A B …``: whichever side goes first changes every pair, so
drift of the machine favours neither).
Printed: every pair, each side's median and quartiles of the claimed
metric (``--metric``, one of ``BENCHMARK.json``'s end-to-end names,
default ``iter_s_p50``; its direction is that entry's ``better``),
the pair wins, whether the medians differ by more than the parent's own
inter-quartile spread, and ``ledger/compare.py``'s verdict on every
metric of the workload.  ``--guards`` then runs five pairs of every
*other* ``BENCHMARK.json`` workload from the same two copies and prints
one table of their end-to-end metrics — what a claim must not move.
Five pairs cannot blame ``setup_s``: a parent-against-parent run of
this tool saw one side win it 5 of 5 times on two workloads, in
opposite directions, and ten pairs each on ``cli_cold`` and
``fleet_storm`` split 4 to 6 (EXPERIMENTS.md, "Trace rows share the
attrs they repeat").

Exit 0 when the claim is met — the change wins at least nine tenths of
the pairs (ties count for neither side), its median is better by more
than the parent's inter-quartile spread, and ``compare.py`` finds no
regression — else 1; the guards are for reading and leave the status
the claim's.  Uses no network; honours ``TMPDIR``.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "ledger"))

import compare  # noqa: E402
import stats  # noqa: E402

#: the end-to-end metric a claim is about unless ``--metric`` names another;
#: its direction comes from ``BENCHMARK.json``
METRIC = "iter_s_p50"
WIN_SHARE = 0.9
GUARD_PAIRS = 5


def export_parent(rev: str, into: Path) -> None:
    """The committed files of ``rev``, as a plain directory."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def copy_checkout(into: Path) -> None:
    """This checkout's working tree: every file git tracks or would add."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # listed but deleted in the working tree
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def ledger_run(tree: Path, rows: Path, workload: str, args: argparse.Namespace) -> float:
    """One ``ledger/run.py`` in ``tree``; its row is appended to ``rows``."""
    argv = [
        sys.executable, str(tree / "ledger" / "run.py"),
        "--workload", workload, "--seed", str(args.seed), "--row", str(rows),
    ]
    if args.seconds is not None:
        argv += ["--seconds", repr(args.seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1 = a check failed: compare.py reports it
        raise SystemExit(f"ledger/run.py in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    row = json.loads(rows.read_text().splitlines()[-1])
    return row["workloads"][workload]["metrics"][args.metric]


def alternate(scratch: Path, workload: str, pairs: int, args: argparse.Namespace, echo: bool):
    """``pairs`` alternating runs of ``workload``; each side's rows, as
    ``ledger/compare.py`` loads them, in pair order."""
    rows = {side: scratch / f"{side}-{workload}.jsonl" for side in ("parent", "change")}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        seen = {side: ledger_run(scratch / side, rows[side], workload, args) for side in order}
        if echo:
            before, after = seen["parent"], seen["change"]
            print(f"  pair {pair + 1:2d} ({order[0]} first)  parent {before:.6g}  change {after:.6g}  "
                  f"{(after - before) / before * 100:+.1f}%")
            sys.stdout.flush()
    return {side: compare.load_rows(path) for side, path in rows.items()}


def guard_table(scratch: Path, benchmark: Dict, args: argparse.Namespace) -> None:
    """Every other workload's end-to-end metrics, parent vs change, printed
    workload by workload as its pairs finish."""
    print(f"guards, {GUARD_PAIRS} pairs each: medians, pairs the change won, compare.py's verdict")
    print(f"  {'workload':<13s} {'metric':<12s} {'parent':>10s} {'change':>10s} {'':>8s}  wins  verdict")
    for workload in (w["name"] for w in benchmark["workloads"] if w["name"] != args.workload):
        rows = alternate(scratch, workload, GUARD_PAIRS, args, echo=False)
        for metric in benchmark["end_to_end"]:
            name, sign = metric["name"], -1.0 if metric["better"] == "lower" else 1.0
            base, new = (compare._values(rows[side], workload, name) for side in ("parent", "change"))
            spread = max(compare._own_spread(rows[side], workload, name) for side in rows)
            verdict, _worse = compare.judge(metric, base, new, spread)
            before, after = stats.median(base), stats.median(new)
            wins = sum(sign * (b - a) > 0 for a, b in zip(base, new))
            print(f"  {workload:<13s} {name:<12s} {before:>10.6g} {after:>10.6g} "
                  f"{(after - before) / before * 100:+7.1f}%  {wins}/{len(base)}   {verdict}")
        sys.stdout.flush()


def judge_claim(rows: Dict[str, List[Dict]], benchmark: Dict, args: argparse.Namespace) -> int:
    """Print the claim's verdict; 0 when it is met."""
    lower = next(m for m in benchmark["end_to_end"] if m["name"] == args.metric)["better"] == "lower"
    values = {side: compare._values(rows[side], args.workload, args.metric) for side in rows}
    lines, regressions = compare.compare(rows["parent"], rows["change"], benchmark)
    sign = -1.0 if lower else 1.0  # of a change for the better
    deltas = [sign * (after - before) for before, after in zip(values["parent"], values["change"])]
    wins, losses = sum(d > 0 for d in deltas), sum(d < 0 for d in deltas)
    quartiles = {side: stats.quartiles(series) for side, series in values.items()}
    for side, (q1, q2, q3) in quartiles.items():
        print(f"  {side:<6s} median {q2:.6g}  quartiles {q1:.6g} .. {q3:.6g}  (IQR {q3 - q1:.3g})")
    (p1, parent_median, p3), change_median = quartiles["parent"], quartiles["change"][1]
    gain = sign * (change_median - parent_median)
    resolved = gain > p3 - p1
    print(f"  change wins {wins} of {args.pairs} pairs ({losses} lost, {args.pairs - wins - losses} tied)")
    print(f"  medians differ by {gain / parent_median * 100:+.1f}% of the parent's; "
          f"{'more' if resolved else 'NOT more'} than the parent's inter-quartile spread")
    print("ledger/compare.py, parent -> change:")
    print("\n".join("  " + line for line in lines))
    met = wins >= WIN_SHARE * args.pairs and resolved and not regressions
    print(f"claim on {args.metric} {'MET' if met else 'NOT MET'} ({regressions} regression(s) elsewhere)")
    sys.stdout.flush()
    return 0 if met else 1


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="the commit the change is judged against")
    parser.add_argument("--workload", required=True, help="the workload the claim is about")
    parser.add_argument("--metric", default=METRIC, choices=[m["name"] for m in benchmark["end_to_end"]],
                        help=f"the end-to-end metric the claim is about (default {METRIC})")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, help="passed to ledger/run.py (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--guards", action="store_true",
                        help=f"then {GUARD_PAIRS} pairs of every other workload, as one table")
    args = parser.parse_args(argv)

    if subprocess.run(
        ["git", "diff", "--quiet", args.parent, "--", "ledger", "BENCHMARK.json"], cwd=ROOT
    ).returncode:
        print(f"ledger/ or BENCHMARK.json differ from {args.parent}: a claimant may not edit the benchmark")
        return 1
    with tempfile.TemporaryDirectory(prefix="ledger-pairs-") as scratch:
        export_parent(args.parent, Path(scratch) / "parent")
        copy_checkout(Path(scratch) / "change")
        print(f"{args.workload} seed {args.seed}: {args.metric}, parent {args.parent} vs this working tree")
        rows = alternate(Path(scratch), args.workload, args.pairs, args, echo=True)
        status = judge_claim(rows, benchmark, args)
        if args.guards:
            guard_table(Path(scratch), benchmark, args)
    return status


if __name__ == "__main__":
    sys.exit(main())
