"""Execution tracing: the raw record every evaluation metric derives from.

The trace stores two layers of data for one pipeline run:

* **busy intervals** (:class:`BusyInterval`) — per-GPU occupancy spans
  tagged with the causing task, the minimal record the paper's headline
  metrics need;
* **typed events** (:class:`EventLog`, read as :class:`TraceEvent` rows)
  — the structured observability stream (task dispatches, CSP waits
  with their blocking edge, prefetch issue/land, evictions, NIC
  transfers, counter samples) consumed by :mod:`repro.obs` for Perfetto
  export and bubble attribution.  The full event schema is documented
  in ``docs/TRACING.md`` and machine-checked by :mod:`repro.obs.events`.

The paper's metrics map onto the interval layer directly:

* **bubble ratio** — idle fraction of each GPU inside the pipeline's
  active window (Table 2's "Bub." column);
* **GPU ALU** — busy fraction × batch-dependent ALU efficiency, summed
  over GPUs (Table 2's "GPU ALU", Figure 7);
* **cache hit rate** — resident-at-execution checks (Table 2's last
  column);
* **throughput** — samples per second from subnet completions.

All times are **virtual milliseconds** from the simulation clock; all
byte quantities are plain bytes.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["BusyInterval", "TraceEvent", "EventLog", "ExecutionTrace"]


class BusyInterval(NamedTuple):
    """One span of GPU occupancy.

    ``kind`` is ``"fwd"``/``"bwd"`` for compute and ``"stall"`` for any
    span where the GPU sits idle waiting on a parameter copy, an operator
    migration or an OOM retry.  Compute intervals are what Table 2's
    bubble/ALU columns count as *busy*; stalls count as idle.
    Units: ``start``/``end`` in virtual ms.

    A :class:`NamedTuple` rather than a frozen dataclass: traces append
    tens of thousands of these per run, and tuple construction is the
    cheapest immutable record CPython offers.
    """

    gpu_id: int
    start: float
    end: float
    kind: str  # "fwd" | "bwd" | "stall"
    subnet_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


#: builds a :class:`BusyInterval` without the generated ``__new__`` frame
_new_tuple = tuple.__new__


class TraceEvent(NamedTuple):
    """One structured observability event.

    ``kind`` names the event type (the registry in
    :data:`repro.obs.events.EVENT_SCHEMAS` enumerates every kind, its
    emitter and its fields).  ``stage`` is the pipeline stage / GPU id
    the event belongs to, or ``-1`` for run-global events; ``subnet_id``
    is ``-1`` when the event is not tied to one subnet.  ``attrs`` holds
    the kind-specific payload as a tuple of ``(key, value)`` pairs so
    the event stays hashable and its serialisation deterministic.
    ``time`` is in virtual ms.

    This is the row *view*: a trace stores its events as the five
    columns of an :class:`EventLog` and builds a ``TraceEvent`` when one
    is indexed, iterated or handed to a listener.
    """

    kind: str
    time: float
    stage: int = -1
    subnet_id: int = -1
    attrs: Tuple[Tuple[str, object], ...] = ()

    def attr(self, key: str, default: object = None) -> object:
        for name, value in self.attrs:
            if name == key:
                return value
        return default

    @property
    def attrs_dict(self) -> Dict[str, object]:
        return dict(self.attrs)


class EventLog(Sequence):
    """Every typed event of one run, as five parallel plain lists.

    Reads like a ``list`` of :class:`TraceEvent` — ``len``, iteration,
    ``[i]``, ``[a:b]`` (a ``list`` of rows), ``in``, ``==`` against
    another log or a ``list``, ``repr`` — but a row exists only while a
    reader holds it.  A run keeps ~150k events, and a ``NamedTuple`` is
    a tuple *subclass*, which CPython's collector never untracks: one
    resident row per event made every full collection re-walk the whole
    trace.  The columns hold the very objects they were given (``True``
    stays ``True``, an ``int`` time stays an ``int``), so every export
    is byte-identical to the row store's.

    Whole-trace passes that need no row object read :meth:`rows` or a
    column directly.
    """

    __slots__ = ("kind", "time", "stage", "subnet_id", "attrs")

    def __init__(self) -> None:
        self.kind: List[str] = []
        self.time: List[float] = []
        self.stage: List[int] = []
        self.subnet_id: List[int] = []
        self.attrs: List[Tuple[Tuple[str, object], ...]] = []

    def _columns(self) -> Tuple[list, ...]:
        return (self.kind, self.time, self.stage, self.subnet_id, self.attrs)

    def rows(self) -> Iterator[tuple]:
        """``(kind, time, stage, subnet_id, attrs)`` per event as plain
        tuples, in emission order — no :class:`TraceEvent` is built."""
        return zip(*self._columns())

    def append(self, event: TraceEvent) -> None:
        for column, value in zip(self._columns(), TraceEvent._make(event)):
            column.append(value)

    def clear(self) -> None:
        for column in self._columns():
            column.clear()

    def __len__(self) -> int:
        return len(self.kind)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(TraceEvent._make, self.rows())

    def __getitem__(self, index):
        if isinstance(index, slice):
            columns = (column[index] for column in self._columns())
            return list(map(TraceEvent._make, zip(*columns)))
        return TraceEvent._make(column[index] for column in self._columns())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventLog):
            return self._columns() == other._columns()
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class ExecutionTrace:
    """Accumulates intervals, typed events and counters for one run."""

    num_gpus: int
    intervals: List[BusyInterval] = field(default_factory=list)
    events: EventLog = field(default_factory=EventLog)
    cache_hits: int = 0
    cache_misses: int = 0
    stall_time_total: float = 0.0
    subnet_completion_times: Dict[int, float] = field(default_factory=dict)
    start_time: float = 0.0
    end_time: float = 0.0
    #: synchronous observers called with each event as it is recorded
    #: (in emission order, on the virtual clock) — the hook live health
    #: monitors attach to.  Excluded from equality: two traces with the
    #: same events are the same trace regardless of who watched them.
    listeners: List = field(default_factory=list, repr=False, compare=False)

    # ------------------------------------------------------------------
    def record_interval(
        self, gpu_id: int, start: float, end: float, kind: str, subnet_id: int
    ) -> None:
        if not (end >= start and math.isfinite(start) and math.isfinite(end)):
            raise ValueError(
                f"interval must be finite and end no earlier than it "
                f"starts: {start}..{end}"
            )
        self.intervals.append(
            _new_tuple(BusyInterval, (gpu_id, start, end, kind, subnet_id))
        )
        if kind == "stall":
            self.stall_time_total += end - start
        self.end_time = max(self.end_time, end)

    def record_event(
        self,
        kind: str,
        time: float,
        stage: int = -1,
        subnet_id: int = -1,
        **attrs: object,
    ) -> None:
        """Append one typed event (see ``docs/TRACING.md`` for kinds) —
        the kwargs spelling of :meth:`append_event`."""
        self.append_event(kind, time, stage, subnet_id, tuple(attrs.items()))

    def append_event(
        self,
        kind: str,
        time: float,
        stage: int,
        subnet_id: int,
        attrs: Tuple[Tuple[str, object], ...],
    ) -> None:
        """Store one event: the single write path.

        Hot emitters call this directly with ``attrs`` as a literal (or
        memoised) tuple of pairs, skipping the kwargs dict.  A
        :class:`TraceEvent` is built only when somebody listens — after
        the row is stored, so an event a listener emits in turn lands
        behind the one that caused it.
        """
        log = self.events
        log.kind.append(kind)
        log.time.append(time)
        log.stage.append(stage)
        log.subnet_id.append(subnet_id)
        log.attrs.append(attrs)
        if self.listeners:
            event = TraceEvent(kind, time, stage, subnet_id, attrs)
            for listener in self.listeners:
                listener(event)

    def record_cache_access(self, hit: bool, count: int = 1) -> None:
        if hit:
            self.cache_hits += count
        else:
            self.cache_misses += count

    def record_subnet_complete(self, subnet_id: int, time: float) -> None:
        self.subnet_completion_times[subnet_id] = time
        self.end_time = max(self.end_time, time)
        self.record_event("subnet_complete", time, subnet_id=subnet_id)

    # ------------------------------------------------------------------
    # event queries
    # ------------------------------------------------------------------
    def intervals_by_gpu(
        self, kinds: Tuple[str, ...] = ("fwd", "bwd", "stall")
    ) -> Dict[int, List[BusyInterval]]:
        """Per-GPU interval lists of the given kinds, sorted by
        ``(start, end)`` — the layout :mod:`repro.obs.model` builds its
        activity chains from.  Every GPU in ``range(num_gpus)`` gets an
        entry (possibly empty) so downstream code never special-cases
        silent stages."""
        per_gpu: Dict[int, List[BusyInterval]] = {
            gpu: [] for gpu in range(self.num_gpus)
        }
        for interval in self.intervals:
            if interval.kind in kinds and interval.gpu_id in per_gpu:
                per_gpu[interval.gpu_id].append(interval)
        for intervals in per_gpu.values():
            intervals.sort(key=lambda i: (i.start, i.end))
        return per_gpu

    def event_counts(self) -> Dict[str, int]:
        """``{kind: occurrences}``, sorted by kind (deterministic)."""
        counts = Counter(self.events.kind)
        return {kind: counts[kind] for kind in sorted(counts)}

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Active-window length in virtual ms (``end_time - start_time``);
        the denominator of every Table 2 utilisation column."""
        return self.end_time - self.start_time

    def compute_durations(self) -> Tuple[Dict[int, List[float]], List[float]]:
        """One walk of the intervals: the fwd/bwd durations grouped by
        GPU, and all of them, each in interval order.

        Builtin ``sum`` over a GPU's list is, value for value, its
        fwd/bwd busy time, and over the whole list what
        :meth:`mean_exec_ms` sums (``sum`` is compensated on Python
        3.12, so a hand-written ``+=`` would move the last bits)."""
        per_gpu: Dict[int, List[float]] = defaultdict(list)
        every: List[float] = []
        for gpu_id, start, end, kind, _ in self.intervals:
            if kind == "fwd" or kind == "bwd":
                duration = end - start
                every.append(duration)
                per_gpu[gpu_id].append(duration)
        return per_gpu, every

    def utilization(self, alu_efficiency: float = 1.0) -> Tuple[float, float, float]:
        """``(bubble_ratio(), total ALU utilisation, mean_exec_ms())`` —
        Table 2's busy-time columns — from one :meth:`compute_durations`
        walk.  The total is the sum over GPUs of busy fraction ×
        ``alu_efficiency`` (Table 2's "GPU ALU" column: "7.8×" means 7.8
        fully busy GPUs)."""
        per_gpu, every = self.compute_durations()
        done = self.subnets_completed()
        mean_exec = sum(every) / done if done else 0.0
        makespan = self.makespan
        if makespan <= 0:
            return 0.0, 0.0, mean_exec
        idle_fractions = []
        total = 0.0
        for gpu in range(self.num_gpus):
            fraction = min(1.0, sum(per_gpu.get(gpu, ())) / makespan)
            idle_fractions.append(1.0 - fraction)
            total += fraction * alu_efficiency
        return sum(idle_fractions) / len(idle_fractions), total, mean_exec

    def bubble_ratio(self) -> float:
        """Mean idle fraction across GPUs over the active window.

        Table 2's "Bub." column (and the y-axis of Figure 7's bubble
        panel).  Dimensionless in [0, 1].  The per-cause decomposition of
        the same quantity lives in
        :func:`repro.obs.summary.bubble_attribution`, which sums back to
        this value within 1e-9.
        """
        return self.utilization()[0]

    def cache_hit_rate(self) -> Optional[float]:
        """Fraction of layer activations found resident (Table 2's last
        column, "when a layer in a choice block is activated, the layer
        already resides in GPU memory").  None when the system does not
        cache (full-context baselines)."""
        accesses = self.cache_hits + self.cache_misses
        if accesses == 0:
            return None
        return self.cache_hits / accesses

    def subnets_completed(self) -> int:
        """Subnets whose final backward committed (stream progress)."""
        return len(self.subnet_completion_times)

    def throughput_samples_per_sec(self, batch: int) -> float:
        """Training throughput in data samples per (virtual) second —
        the quantity Figure 5/6 normalise and Figure 7 scales."""
        if self.makespan <= 0:
            return 0.0
        return self.subnets_completed() * batch / (self.makespan / 1_000.0)

    def mean_exec_ms(self) -> float:
        """Average busy (bubble-eliminated) execution time per subnet.

        Table 2's "Exec." column: total compute time across GPUs divided
        by subnets completed and by the stage count — i.e. the per-subnet
        critical-path time had there been no bubbles.  Virtual ms.
        """
        return self.utilization()[2]

    def gantt_rows(self) -> List[Tuple[int, float, float, str, int]]:
        """Plain-tuple rendering of intervals (for Figure 1 style output)."""
        return [
            (i.gpu_id, i.start, i.end, i.kind, i.subnet_id)
            for i in sorted(self.intervals, key=lambda i: (i.gpu_id, i.start))
        ]
