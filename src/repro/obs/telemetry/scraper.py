"""The scrape loop: first-class sim events sampling the registry.

A :class:`Scraper` schedules itself on a plane's
:class:`~repro.sim.engine.SimulationEngine` at a fixed
``scrape_interval_ms``.  Each scrape fires at **low priority** (after
every decision due at that virtual instant has been processed), deep-
copies the registry into an append-only sample series, and re-arms only
while other events remain pending — so an armed scraper never keeps a
quiesced simulation alive, and the virtual clock, schedule, and every
engine decision are untouched.  A final scrape is taken when the queue
drains, so the series always ends with the run's closing state.

Two byte-deterministic exports: canonical JSONL (one line per scrape)
and Prometheus text exposition of the final state.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.telemetry.registry import MetricsRegistry, render_prometheus
from repro.payload import compact

__all__ = ["Scraper"]


class Scraper:
    """Snapshot ``registry`` every ``interval_ms`` of virtual time."""

    def __init__(self, registry: MetricsRegistry, interval_ms: float = 100.0) -> None:
        if not 0 < interval_ms < math.inf:  # NaN fails both
            raise ConfigError(
                f"scrape_interval_ms must be > 0 and finite, got {interval_ms}"
            )
        self.registry = registry
        self.interval_ms = float(interval_ms)
        #: append-only series: (virtual ms, flat snapshot)
        self.samples: List[Tuple[float, Dict[str, float]]] = []

    # ------------------------------------------------------------------
    def attach(self, sim) -> None:
        """Arm the scrape loop on a simulation engine.

        The first scrape lands at t=0 (the baseline sample), later ones
        every ``interval_ms``.  Priority 50 places each scrape after all
        same-instant plane events (plans run at priority 10, serving
        completions at 5), so a sample always reflects the post-decision
        state of its instant.
        """
        sim.schedule(sim.now, lambda: self._tick(sim), priority=50, label="scrape")

    def _tick(self, sim) -> None:
        self.scrape(sim.now)
        if len(sim.queue) > 0:
            sim.schedule(
                sim.now + self.interval_ms,
                lambda: self._tick(sim),
                priority=50,
                label="scrape",
            )

    def scrape(self, now: float) -> None:
        """Take one sample at virtual time ``now`` (idempotent per
        instant: a quiescence flush at an already-sampled time is
        skipped, so series never carry duplicate timestamps)."""
        if self.samples and self.samples[-1][0] == now:
            self.samples[-1] = (now, self.registry.snapshot())
            return
        self.samples.append((now, self.registry.snapshot()))

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def series_jsonl(self) -> str:
        """Canonical JSONL: one ``{"t_ms": ..., "samples": {...}}`` line
        per scrape, sorted keys, byte-identical across identical runs."""
        lines = [
            compact({"t_ms": t, "samples": samples})
            for t, samples in self.samples
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def prometheus_text(self) -> str:
        """Prometheus text exposition of the final registry state."""
        return render_prometheus(self.registry)

    def tail_lines(self, keys: Optional[List[str]] = None, last: int = 12) -> List[str]:
        """Human-readable scrape-by-scrape tail (the ``naspipe monitor``
        terminal rendering): the most recent ``last`` scrapes, showing
        ``keys`` (default: every non-bucket sample that ever moved)."""
        if not self.samples:
            return ["(no scrapes)"]
        if keys is None:
            moved = set()
            for _, sample in self.samples:
                for name, value in sample.items():
                    if "_bucket" not in name and value:
                        moved.add(name)
            keys = sorted(moved)[:6]
        lines = [f"{'t_ms':>10}  " + "  ".join(f"{k}" for k in keys)]
        for t, sample in self.samples[-last:]:
            rendered = "  ".join(
                f"{sample.get(key, 0.0):>{max(len(key), 6)}g}" for key in keys
            )
            lines.append(f"{t:>10.1f}  {rendered}")
        return lines
