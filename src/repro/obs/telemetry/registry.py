"""Typed, deterministic metric instruments and their registry.

The online telemetry plane mirrors the Prometheus data model — counters,
gauges, histograms with labels — but with two hard constraints the
real-world stack cannot offer:

* **fixed shapes** — an instrument declares its label *names* once and
  a histogram declares its bucket boundaries once; there is no dynamic
  bucketing and no label-name drift, so two identical runs produce
  structurally identical series;
* **virtual-clock updates** — instruments are updated synchronously from
  existing trace-event emission points (listeners and direct calls at
  already-deterministic decision points), never from wall-clock timers,
  so the whole metric stream is bit-reproducible.

Instruments never feed back into scheduling: registering or updating a
metric cannot change an engine decision, which is what keeps digests
bitwise identical with telemetry on (tested).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
    "BOUNDS_RULE",
    "checked_bounds",
    "bucket_index",
]

_LabelValues = Tuple[str, ...]


def _fmt(value: float) -> str:
    """Canonical sample rendering: integral values print as integers,
    everything else as ``repr`` (shortest round-trip float — stable
    across runs and platforms for our pure-python arithmetic)."""
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _Instrument:
    """Shared shape: fixed label names, per-label-values series."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()) -> None:
        if not name or not name.replace("_", "").isalnum():
            raise ConfigError(f"bad metric name {name!r}")
        self.name = name
        self.help = help
        self.labels: Tuple[str, ...] = tuple(labels)
        self._sorted_labels = tuple(sorted(self.labels))

    def _key(self, label_values: Dict[str, object]) -> _LabelValues:
        # labels given in declared order (the usual call) need no sort
        if (
            tuple(label_values) != self.labels
            and tuple(sorted(label_values)) != self._sorted_labels
        ):
            raise ConfigError(
                f"{self.name}: labels {sorted(label_values)} != declared "
                f"{sorted(self.labels)} (fixed label sets)"
            )
        return tuple(str(label_values[label]) for label in self.labels)

    def series(self) -> Iterator[Tuple[str, float]]:
        """``(name{label="v",...}, value)`` per sample, sorted by label
        values — the one spelling of a series key, shared by snapshots
        and the Prometheus exposition.  A ``_bucket`` sample's last
        label value is its ``le`` bound."""
        for name, key, value in self.samples():
            if key:
                names = self.labels
                if name.endswith("_bucket"):
                    names += ("le",)
                rendered = ",".join(
                    f'{label}="{val}"' for label, val in zip(names, key)
                )
                name = f"{name}{{{rendered}}}"
            yield name, value


class _Scalar(_Instrument):
    """One float per label-values series: what counters and gauges share."""

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._series: Dict[_LabelValues, float] = {}

    def value(self, **label_values) -> float:
        return self._series.get(self._key(label_values), 0.0)

    def samples(self) -> List[Tuple[str, _LabelValues, float]]:
        return [
            (self.name, key, self._series[key])
            for key in sorted(self._series)
        ]


class Counter(_Scalar):
    """Monotonic accumulator (``inc`` only)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **label_values) -> None:
        self._inc(self._key(label_values), amount)

    def inc_to(self, total: float, **label_values) -> None:
        """Follow a monotone total kept elsewhere (never steps back)."""
        self._inc_to(self._key(label_values), total)

    def _inc(self, key: _LabelValues, amount: float) -> None:
        if amount < 0:
            raise ConfigError(f"{self.name}: counters only go up ({amount})")
        self._series[key] = self._series.get(key, 0.0) + amount

    def _inc_to(self, key: _LabelValues, total: float) -> None:
        self._inc(key, max(0.0, total - self._series.get(key, 0.0)))


class Gauge(_Scalar):
    """Set-to-current-value instrument; tracks the peak ever set, which
    the compact telemetry block and capacity planning read."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._peak: Dict[_LabelValues, float] = {}

    def set(self, value: float, **label_values) -> None:
        self._set(self._key(label_values), value)

    def add(self, delta: float, **label_values) -> None:
        self._add(self._key(label_values), delta)

    def _set(self, key: _LabelValues, value: float) -> None:
        self._series[key] = number = float(value)
        if number > self._peak.get(key, float("-inf")):
            self._peak[key] = number

    def _add(self, key: _LabelValues, delta: float) -> None:
        self._set(key, self._series.get(key, 0.0) + delta)

    def peak(self) -> float:
        """Highest value ever set across every labelled series (0.0
        when never set)."""
        return max(self._peak.values(), default=0.0)


BOUNDS_RULE = "histogram buckets must be non-empty and strictly ascending"


def checked_bounds(buckets: Sequence[float]) -> Optional[Tuple[float, ...]]:
    """``buckets`` as floats, or None when they break :data:`BOUNDS_RULE`
    (each caller raises its own error type around the shared rule)."""
    bounds = tuple(float(b) for b in buckets)
    if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        return None
    return bounds


def bucket_index(bounds: Sequence[float], value: float) -> int:
    """Index of the first upper bound ``value`` fits under;
    ``len(bounds)`` is the overflow (+Inf) bucket."""
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


class Histogram(_Instrument):
    """Fixed-boundary histogram (no dynamic buckets — determinism).

    ``buckets`` are ascending upper bounds; an implicit ``+Inf`` bucket
    closes the range.  Samples expand Prometheus-style: cumulative
    ``<name>_bucket{le=...}`` counts plus ``_sum`` and ``_count``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float],
        labels: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, labels)
        bounds = checked_bounds(buckets)
        if bounds is None:
            raise ConfigError(f"{name}: {BOUNDS_RULE}, got {list(buckets)}")
        self.buckets = bounds
        self._counts: Dict[_LabelValues, List[int]] = {}
        self._sum: Dict[_LabelValues, float] = {}
        self._count: Dict[_LabelValues, int] = {}

    def observe(self, value: float, **label_values) -> None:
        self._observe(self._key(label_values), value)

    def _observe(self, key: _LabelValues, value: float) -> None:
        counts = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
        number = float(value)
        counts[bucket_index(self.buckets, number)] += 1
        self._sum[key] = self._sum.get(key, 0.0) + number
        self._count[key] = self._count.get(key, 0) + 1

    def count(self, **label_values) -> int:
        return self._count.get(self._key(label_values), 0)

    def sum(self, **label_values) -> float:
        return self._sum.get(self._key(label_values), 0.0)

    def samples(self) -> List[Tuple[str, _LabelValues, float]]:
        rows: List[Tuple[str, _LabelValues, float]] = []
        for key in sorted(self._counts):
            cumulative = 0
            for bound, bucket in zip(self.buckets, self._counts[key]):
                cumulative += bucket
                rows.append(
                    (f"{self.name}_bucket", key + (_fmt(bound),), float(cumulative))
                )
            cumulative += self._counts[key][-1]
            rows.append((f"{self.name}_bucket", key + ("+Inf",), float(cumulative)))
            rows.append((f"{self.name}_sum", key, self._sum[key]))
            rows.append((f"{self.name}_count", key, float(self._count[key])))
        return rows


class MetricsRegistry:
    """The plane-shared instrument registry the scraper snapshots.

    Registration is idempotent by name (the same plane re-registering
    its instruments gets the existing objects back); re-registering with
    a different type or shape is a loud error — shape drift would break
    the byte-determinism contract.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = (),
        labels: Sequence[str] = (),
    ) -> Histogram:
        return self._register(Histogram, name, help, labels, buckets)

    def _register(self, kind: type, name: str, help: str, labels, buckets=None):
        """The one shape check: a request that repeats the registered
        type and shape gets the existing object back without building
        anything; a first request registers; a drifted one is loud,
        after the constructor has had its say on a bad name or bounds."""
        existing = self._instruments.get(name)
        if (
            type(existing) is kind
            and existing.labels == tuple(labels)
            and (buckets is None or existing.buckets == tuple(buckets))
        ):
            return existing
        shape = (labels,) if buckets is None else (buckets, labels)
        instrument = kind(name, help, *shape)
        if existing is not None:
            raise ConfigError(
                f"metric {name!r} re-registered with a different type or shape"
            )
        self._instruments[name] = instrument
        return instrument

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def instruments(self) -> List[_Instrument]:
        return [self._instruments[name] for name in sorted(self._instruments)]

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat deterministic state: ``name{label="v",...}`` -> value.

        Histogram series expand to their cumulative buckets / sum /
        count, so a snapshot diff between two scrapes is well-defined
        for every instrument type.
        """
        return {
            series: value
            for instrument in self.instruments()
            for series, value in instrument.series()
        }


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition (version 0.0.4) of the registry's
    current state.  Byte-deterministic: instruments sort by name, series
    by label values, values render canonically.  Caveat (documented in
    ``docs/TELEMETRY.md``): timestamps are *virtual* milliseconds and
    therefore omitted — a real Prometheus server would misread them as
    wall-clock epochs.
    """
    lines: List[str] = []
    for instrument in registry.instruments():
        lines.append(f"# HELP {instrument.name} {instrument.help}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        lines.extend(
            f"{series} {_fmt(value)}" for series, value in instrument.series()
        )
    return "\n".join(lines) + "\n"
