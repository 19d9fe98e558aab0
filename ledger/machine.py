"""What the machine was doing while the ledger measured.

A shared 2-core virtual machine does not run at one speed.  Measured
here over two hours: the same iteration drifts by ±7% (one standard
deviation) over minutes, with phases of 1.5–3× slowdown lasting one to
six minutes when a neighbour is busy.  No statistic taken *within* a
12-second run removes that, because the whole run sits inside one
phase.  Two instruments do:

* :func:`reference_seconds` — a fixed piece of interpreter work shaped
  like the simulator's inner loop (heap pushes and pops, an ordered
  dict, tuples and named tuples), timed immediately before and after
  each sample.  A sample's host time is divided by how much slower than
  :data:`REFERENCE_NOMINAL_S` the reference ran around it, so host-time
  metrics are **seconds at nominal machine speed**.  On this box that
  halves the run-to-run spread of a median (5.7% → 2.5% on
  ``csp_dense``, 4.4% → 2.1% on ``asp_fullctx``) and absorbs most of a
  slow phase: two back-to-back sets of ten runs per workload differed by
  at most 6% in any scaled median where the raw medians differed by up
  to 18%.  The raw figures are printed beside the scaled ones.
* :func:`stolen_seconds` — time the hypervisor withheld from this
  machine's virtual CPUs (``steal`` in ``/proc/stat``).  It marks the
  worst phases (process CPU ÷ wall does not: it stayed at 0.98
  throughout), so a run that lost more than :data:`STOLEN_SHARE` of its
  time says so.  Dropping such samples was tried and removed: in a long
  phase every sample is marked, and the scaled figures held without it.
"""

from __future__ import annotations

import gc
import heapq
import os
import time
from collections import OrderedDict, namedtuple

__all__ = [
    "REFERENCE_NOMINAL_S",
    "STOLEN_SHARE",
    "reference_seconds",
    "speed",
    "stolen_seconds",
]

#: what one :func:`reference_seconds` takes on this box when it is quiet;
#: only a scale — comparisons are between runs on one machine
REFERENCE_NOMINAL_S = 0.055
#: a run from which the hypervisor withheld more than this share of its
#: time was measured next to a busy neighbour
STOLEN_SHARE = 0.02

_ROUNDS = 50_000
#: the kernel's heap stays this small, so that running it between two
#: iterations cannot raise the peak memory of the program being measured
_HEAP_LIMIT = 512
_Event = namedtuple("_Event", "kind time stage subnet attrs")


def reference_seconds() -> float:
    """Seconds the reference kernel takes right now.

    The collector is paused meanwhile: a generational collection walks
    the whole heap of the process that calls this, and the reference
    must not depend on how much the program under test keeps alive.
    """
    heap: list = []
    recent: "OrderedDict[int, tuple]" = OrderedDict()
    push, pop = heapq.heappush, heapq.heappop
    collecting = gc.isenabled()
    gc.disable()
    try:
        begun = time.perf_counter()
        for index in range(_ROUNDS):
            push(heap, ((index * 7919) % 1013, index))
            recent[index % 257] = (index, index + 1)
            if len(heap) > _HEAP_LIMIT:
                pop(heap)
                recent.move_to_end(index % 257)
            _Event("k", index * 0.5, index % 8, index, (("a", index), ("b", index)))
        return time.perf_counter() - begun
    finally:
        if collecting:
            gc.enable()


def speed(before: float, after: float) -> float:
    """How much slower than nominal the machine ran between two
    reference timings (1.0 = nominal, 1.5 = everything takes 1.5×)."""
    return (before + after) / 2.0 / REFERENCE_NOMINAL_S


def stolen_seconds() -> float:
    """Seconds, summed over CPUs, this machine's virtual CPUs were ready
    to run but not scheduled by the hypervisor since boot; 0.0 where the
    kernel does not report it."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0
