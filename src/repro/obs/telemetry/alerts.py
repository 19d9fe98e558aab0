"""Declarative alert rules evaluated at scrape points only.

Two rule kinds, both evaluated over the scraper's sample series — never
between scrapes — so every firing and resolution carries a virtual
scrape timestamp and is bit-reproducible:

* **threshold** — ``metric OP threshold`` must hold continuously for
  ``for_ms`` virtual milliseconds before the rule fires; it resolves at
  the first scrape where the predicate fails.
* **burn_rate** — the SRE multi-window error-budget rule over a
  good/bad counter pair: for each window ``W`` the trailing bad
  fraction ``Δbad / (Δgood + Δbad)`` must reach ``factor × (1 −
  objective)``; the rule fires when *every* window burns (the short
  window gives fast trigger, the long one suppresses blips) and
  resolves when any stops burning.

Rules come from JSON (``naspipe monitor --rules rules.json``) or from
:data:`DEFAULT_RULES`, which are chosen to stay silent on healthy runs:
they key off down slots, failed jobs, and serving SLO burn — all zero
without faults (the pinned monitor report of the service demo holds
zero firings).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.payload import build, positive

__all__ = ["AlertRule", "AlertEngine", "load_rules", "rule_objects", "DEFAULT_RULES"]

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


@dataclass(frozen=True)
class BurnWindow:
    """One window of a burn-rate rule: it burns when its trailing bad
    fraction reaches ``factor`` × the error budget."""

    window_ms: float = positive()
    factor: float = positive(default=1.0)


@dataclass(frozen=True)
class AlertRule:
    """One validated rule (threshold or burn_rate); a threshold rule
    reads ``metric``/``op``/``threshold``/``for_ms``, a burn-rate rule
    ``good``/``bad``/``objective``/``windows``."""

    name: str
    kind: str = "threshold"
    metric: str = ""
    op: str = ">"
    threshold: float = 0.0
    for_ms: float = 0.0
    good: str = ""
    bad: str = ""
    objective: float = 0.99
    windows: List[BurnWindow] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("needs a name")
        if self.kind == "threshold":
            if not self.metric:
                raise ConfigError("threshold rule needs a metric")
            if self.op not in _OPS:
                raise ConfigError(
                    f"op must be one of {sorted(_OPS)}, got {self.op!r}"
                )
        elif self.kind == "burn_rate":
            if not self.good or not self.bad:
                raise ConfigError(
                    "burn_rate rule needs good/bad metrics"
                )
            if not 0.0 < self.objective < 1.0:
                raise ConfigError(
                    f"objective must be in (0, 1), got {self.objective}"
                )
            if not self.windows:
                raise ConfigError("burn_rate rule needs windows")
        else:
            raise ConfigError(
                f"kind must be 'threshold' or 'burn_rate', got {self.kind!r}"
            )

    @classmethod
    def from_payload(cls, payload) -> "AlertRule":
        """Read one rule object, named ``alert rule '<name>'`` in errors."""
        named = isinstance(payload, Mapping) and "name" in payload
        return build(cls, payload, f"alert rule {payload['name']!r}" if named else "alert rule")

    # ------------------------------------------------------------------
    def active_at(
        self, index: int, series: Sequence[Tuple[float, Dict[str, float]]]
    ) -> bool:
        """Does the rule's *predicate* hold at scrape ``index``?  (The
        ``for_ms`` hold is applied by the engine, not here.)"""
        t, sample = series[index]
        if self.kind == "threshold":
            value = sample.get(self.metric, 0.0)
            return _OPS[self.op](value, self.threshold)
        budget = 1.0 - self.objective
        for window in self.windows:
            base = _sample_at_or_before(series, index, t - window.window_ms)
            d_bad = sample.get(self.bad, 0.0) - base.get(self.bad, 0.0)
            d_good = sample.get(self.good, 0.0) - base.get(self.good, 0.0)
            total = d_bad + d_good
            rate = d_bad / total if total > 0 else 0.0
            if rate < window.factor * budget:
                return False
        return True


def _sample_at_or_before(
    series: Sequence[Tuple[float, Dict[str, float]]], index: int, cutoff: float
) -> Dict[str, float]:
    """The latest sample at time <= ``cutoff`` among ``series[:index+1]``;
    the window covers the whole run when nothing precedes it (counters
    start at zero, so "before the first scrape" is the empty sample)."""
    best: Optional[Dict[str, float]] = None
    for t, sample in series[: index + 1]:
        if t <= cutoff:
            best = sample
        else:
            break
    return best if best is not None else {}


class AlertEngine:
    """Evaluate rules over a scrape series; produce the alert log."""

    def __init__(self, rules: Sequence[AlertRule]) -> None:
        self.rules = list(rules)

    def evaluate(
        self, series: Sequence[Tuple[float, Dict[str, float]]]
    ) -> List[Dict]:
        """The deterministic alert log: one entry per firing, ordered by
        (fired_at_ms, rule name).  ``resolved_at_ms`` is None for alerts
        still firing at the final scrape."""
        log: List[Dict] = []
        for rule in self.rules:
            pending_since: Optional[float] = None
            fired_at: Optional[float] = None
            for index, (t, _) in enumerate(series):
                active = rule.active_at(index, series)
                if active:
                    if fired_at is None:
                        # a burn-rate rule's windows are its hold
                        hold = rule.for_ms if rule.kind == "threshold" else 0.0
                        if pending_since is None:
                            pending_since = t
                        if t - pending_since >= hold:
                            fired_at = t
                else:
                    if fired_at is not None:
                        log.append(
                            {
                                "rule": rule.name,
                                "kind": rule.kind,
                                "fired_at_ms": fired_at,
                                "resolved_at_ms": t,
                            }
                        )
                        fired_at = None
                    pending_since = None
            if fired_at is not None:
                log.append(
                    {
                        "rule": rule.name,
                        "kind": rule.kind,
                        "fired_at_ms": fired_at,
                        "resolved_at_ms": None,
                    }
                )
        log.sort(key=lambda e: (e["fired_at_ms"], e["rule"]))
        return log

    def report(
        self, series: Sequence[Tuple[float, Dict[str, float]]]
    ) -> Dict:
        log = self.evaluate(series)
        return {
            "rules": [rule.name for rule in self.rules],
            "firings": len(log),
            "log": log,
        }


#: Rules ``naspipe monitor`` applies when ``--rules`` is absent.  All of
#: them are silent on a healthy run: no down slots, no failed jobs, no
#: serving SLO burn.
DEFAULT_RULES: Tuple[Dict, ...] = (
    {
        "name": "fleet_slots_down",
        "metric": "fleet_down_slots",
        "op": ">",
        "threshold": 0.0,
    },
    {
        "name": "service_job_failed",
        "metric": "service_jobs_failed",
        "op": ">",
        "threshold": 0.0,
    },
    {
        "name": "serving_slo_burn",
        "kind": "burn_rate",
        "good": "serving_slo_good_total",
        "bad": "serving_slo_bad_total",
        "objective": 0.99,
        "windows": [
            {"window_ms": 500.0, "factor": 10.0},
            {"window_ms": 2000.0, "factor": 5.0},
        ],
    },
)


@dataclass(frozen=True)
class _RulesFile:
    """A rules file that is an object: its only key is ``rules``."""

    rules: list


def rule_objects(content) -> list:
    """The rule objects a rules file holds: it is a list of them, or an
    object whose only key is ``rules`` (anything else is refused)."""
    if isinstance(content, (list, tuple)):
        return content
    return build(_RulesFile, content, "alert rules").rules


def load_rules(source=None) -> List[AlertRule]:
    """Build rules from a JSON file path, what a rules file holds (see
    :func:`rule_objects`), or None (:data:`DEFAULT_RULES`)."""
    if source is None:
        source = DEFAULT_RULES
    elif isinstance(source, (str, Path)):
        source = json.loads(Path(source).read_text())
    return [AlertRule.from_payload(payload) for payload in rule_objects(source)]
