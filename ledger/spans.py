"""Out-of-program span recorder: wraps public entry points, keeps columns.

The harness installs wrappers around the public functions and methods of
each layer (``install_spans`` in ``ledger/programs.py``), runs the traced
iterations, and removes them again; nothing under ``src/`` knows.  Each
call becomes one span — name, start, end, parent — appended to flat
``array`` columns (28 bytes a span; a ``csp_dense`` iteration makes about
half a million).  A layer's **self time** is its spans' duration minus
the part their child spans cover, so over one iteration the self times
of all names sum exactly to the root span.

Wrapping costs time.  :func:`calibrate` measures the cost of one span on
a wrapped no-op, split into the part that lands inside the span's own
timestamps and the part that lands in its parent, and
:func:`self_times` subtracts both, reporting what it removed.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Recorder", "SelfTimes", "calibrate", "self_times"]

#: a span name, or the names successive calls take in turn (for an entry
#: point the program calls a fixed number of times per iteration)
Label = Union[str, Sequence[str]]
#: ``after(self_or_first_arg, result, counts)``: reads public result
#: fields into the recorder's counters once the span has closed
After = Callable[[object, object, Counter], None]


class Recorder:
    """Span columns, the open-span stack, and the list of patches made."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: indices of root spans, one per traced iteration
        self.roots: List[int] = []
        self._stack: List[int] = [-1]
        #: counts read from public result fields by ``after`` hooks
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    # -- naming ---------------------------------------------------------
    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    # -- wrapping -------------------------------------------------------
    def wrap(self, fn: Callable, label: Label, after: Optional[After] = None) -> Callable:
        """``fn`` recorded as one span per call."""
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock, counts = self._stack, self.clock, self.counts
        if isinstance(label, str):
            ids: Iterator[int] = itertools.repeat(self.label_id(label))
        else:
            ids = itertools.cycle([self.label_id(each) for each in label])

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(names)
            names.append(next(ids))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        if after is None:
            return span

        @functools.wraps(fn)
        def counted_span(*args, **kwargs):
            result = span(*args, **kwargs)
            after(args[0] if args else None, result, counts)
            return result

        return counted_span

    @contextmanager
    def root(self, label: str = "iteration"):
        """The span one traced iteration runs under."""
        index = len(self.name)
        self.roots.append(index)
        self.name.append(self.label_id(label))
        self.parent.append(-1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        try:
            yield index
        finally:
            self.end[index] = self.clock()
            self._stack.pop()

    # -- installing -----------------------------------------------------
    def patch_method(self, owner: type, attr: str, label: Label, after: Optional[After] = None) -> None:
        """Wrap ``owner.attr`` where ``owner`` itself defines it."""
        original = owner.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self.wrap(original.__func__, label, after))
        elif isinstance(original, types.FunctionType):
            wrapped = self.wrap(original, label, after)
        else:
            raise TypeError(f"{owner.__name__}.{attr} is not a function")
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def patch_function(self, function: Callable, label: Label, after: Optional[After] = None, prefixes: Iterable[str] = ("repro",)) -> None:
        """Wrap a module-level function under every name it was imported
        as (``from x import f`` copies the reference into the importer)."""
        wrapped = self.wrap(function, label, after)
        roots = tuple(prefixes)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] not in roots:
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, function))

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------
    def iteration_slices(self) -> List[Tuple[int, int]]:
        bounds = self.roots + [len(self.name)]
        return [(bounds[i], bounds[i + 1]) for i in range(len(self.roots))]

    def columns(self, lo: int, hi: int):
        """Numpy views of spans ``lo..hi`` with parents rebased to ``lo``."""
        name = np.frombuffer(self.name, dtype=np.intc)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.intc)[lo:hi].astype(np.int64)
        parent = np.where(parent >= 0, parent - lo, -1)
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        return name, parent, start, end

    def write(self, path) -> None:
        """Dump the columns: a JSON header line, then the raw arrays."""
        header = {
            "labels": self.labels,
            "spans": len(self.name),
            "roots": self.roots,
            "columns": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header, sort_keys=True) + "\n").encode())
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


class SelfTimes(NamedTuple):
    """Per-label figures of one iteration's spans (index = label id)."""

    #: duration minus child-covered time, minus the calibrated span cost
    self_s: np.ndarray
    calls: np.ndarray
    #: span cost removed, summed over labels (add it back to tile the wall)
    removed_s: float
    #: inclusive durations, for the few metrics defined that way
    durations: np.ndarray
    name: np.ndarray


def self_times(name, parent, start, end, num_labels: int, cost: Tuple[float, float] = (0.0, 0.0)) -> SelfTimes:
    """Self time per label for one tree (or forest) of spans.

    ``cost`` is :func:`calibrate`'s ``(inside, outside)`` seconds per
    span: ``inside`` is taken off the span's own label, ``outside`` off
    its parent's.  With ``cost == (0, 0)`` the self times sum exactly to
    the roots' durations.
    """
    name = np.asarray(name)
    parent = np.asarray(parent)
    durations = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    child = parent >= 0
    parent_label = name[parent[child]]
    total = np.bincount(name, weights=durations, minlength=num_labels)
    covered = np.bincount(parent_label, weights=durations[child], minlength=num_labels)
    calls = np.bincount(name, minlength=num_labels)
    children = np.bincount(parent_label, minlength=num_labels)
    inside, outside = cost
    removed = calls * inside + children * outside
    return SelfTimes(total - covered - removed, calls, float(removed.sum()), durations, name)


def calibrate(calls: int = 20000, repeats: int = 5) -> Tuple[float, float]:
    """Seconds one span costs: ``(inside its timestamps, outside them)``.

    Timed on a wrapped no-op against the bare no-op; the least of
    ``repeats`` rounds, since interference only ever adds.
    """

    def noop() -> None:
        return None

    best_inside = best_total = float("inf")
    for _ in range(repeats):
        recorder = Recorder()
        wrapped = recorder.wrap(noop, "noop")
        clock = recorder.clock
        with recorder.root("calibrate"):
            begun = clock()
            for _ in range(calls):
                wrapped()
            spanned = clock() - begun
        begun = clock()
        for _ in range(calls):
            noop()
        bare = clock() - begun
        _, _, start, end = recorder.columns(1, len(recorder.name))
        best_inside = min(best_inside, float((end - start).mean()))
        best_total = min(best_total, (spanned - bare) / calls)
    inside = max(0.0, best_inside)
    return inside, max(0.0, best_total - inside)
