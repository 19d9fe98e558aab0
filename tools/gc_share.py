#!/usr/bin/env python3
"""What the cyclic collector costs one ledger workload.

    python tools/gc_share.py --workload W [--seed N] [--iters K] [--tree DIR]

Runs the workload's program as ``ledger/child.py`` does (one warm-up,
``gc.collect()`` between iterations, the collector enabled inside them)
under a ``gc.callbacks`` stopwatch.  Per iteration: passes and seconds of
each generation, the collector's share, the GC-tracked objects the run
added while its outcome is alive, and the peak RSS so far (``ru_maxrss``
of the process or of a child it waited for, as ``ledger/child.py`` reads
it); at the end the five most common tracked types.  Counts repeat
exactly; seconds and megabytes depend on the machine.
``--tree`` measures another checkout (a clone of the parent, say).
"""

import argparse
import gc
import os
import resource
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--iters", type=int, default=3)
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.tree / "ledger"), str(args.tree / "src")]
    os.environ["PYTHONPATH"] = str(args.tree / "src")  # cli_cold spawns its command
    import programs  # noqa: E402  (ledger/programs.py of the measured tree)
    import workloads  # noqa: E402  (read-only, like everything under ledger/)
    passes, seconds, begun = Counter(), Counter(), [0.0]

    def stopwatch(phase: str, info: dict) -> None:
        if phase == "start":
            begun[0] = time.perf_counter()
        else:
            passes[info["generation"]] += 1
            seconds[info["generation"]] += time.perf_counter() - begun[0]
    with tempfile.TemporaryDirectory(prefix="gc-share-") as workdir:
        program = programs.build(workloads.generate(args.workload, args.seed), Path(workdir))
        outcome = program.iterate()
        for iteration in range(args.iters):
            del outcome
            gc.collect()
            tracked = len(gc.get_objects())
            passes.clear(), seconds.clear()
            gc.callbacks.append(stopwatch)
            start = time.perf_counter()
            outcome = program.iterate()
            wall = time.perf_counter() - start
            gc.callbacks.remove(stopwatch)
            gc.collect()
            added = len(gc.get_objects()) - tracked
            spent = sum(seconds.values())
            per_gen = "  ".join(f"gen-{g} {passes[g]:4d} / {seconds[g]:.3f} s" for g in range(3))
            peak_mb = max(  # as ledger/child.py reads it: KiB on Linux, children too (cli_cold)
                resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
            ) / 1024
            print(f"iter {iteration + 1}: {wall:.3f} s  collector {spent:.3f} s ({spent / wall:.1%})  "
                  f"{per_gen}  tracked objects added {added:,}  peak RSS {peak_mb:.1f} MB")
        census = Counter(type(obj).__name__ for obj in gc.get_objects())
    print(f"{sum(census.values()):,} tracked objects alive; top 5: "
          + ", ".join(f"{name} {count:,}" for name, count in census.most_common(5)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
