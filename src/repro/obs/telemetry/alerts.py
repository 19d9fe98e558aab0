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
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.payload import check, number, reject_unknown

__all__ = ["AlertRule", "AlertEngine", "load_rules", "DEFAULT_RULES"]

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}

_RULE_KEYS = frozenset(
    {
        "name",
        "kind",
        "metric",
        "op",
        "threshold",
        "for_ms",
        "good",
        "bad",
        "objective",
        "windows",
    }
)


class AlertRule:
    """One validated rule (threshold or burn_rate)."""

    def __init__(self, payload: Dict) -> None:
        where = "alert rule"
        if isinstance(payload, Mapping):
            where = f"alert rule {payload.get('name')!r}"
        reject_unknown(payload, _RULE_KEYS, where)
        self.name = check(where, "name", payload.get("name", ""), str)
        if not self.name:
            raise ConfigError("alert rule needs a name")
        self.kind = check(where, "kind", payload.get("kind", "threshold"), str)
        if self.kind == "threshold":
            self.metric = check(where, "metric", payload.get("metric", ""), str)
            if not self.metric:
                raise ConfigError(f"{self.name}: threshold rule needs a metric")
            self.op = check(where, "op", payload.get("op", ">"), str)
            if self.op not in _OPS:
                raise ConfigError(
                    f"{self.name}: op must be one of {sorted(_OPS)}, "
                    f"got {self.op!r}"
                )
            self.threshold = number(where, "threshold", payload.get("threshold", 0.0))
            self.for_ms = number(where, "for_ms", payload.get("for_ms", 0.0))
        elif self.kind == "burn_rate":
            self.good = check(where, "good", payload.get("good", ""), str)
            self.bad = check(where, "bad", payload.get("bad", ""), str)
            if not self.good or not self.bad:
                raise ConfigError(
                    f"{self.name}: burn_rate rule needs good/bad metrics"
                )
            self.objective = number(where, "objective", payload.get("objective", 0.99))
            if not 0.0 < self.objective < 1.0:
                raise ConfigError(
                    f"{self.name}: objective must be in (0, 1), "
                    f"got {self.objective}"
                )
            windows = check(where, "windows", payload.get("windows", []), list)
            if not windows:
                raise ConfigError(f"{self.name}: burn_rate rule needs windows")
            self.windows: List[Tuple[float, float]] = []
            for i, window in enumerate(windows):
                at = f"{where}.windows[{i}]"
                reject_unknown(window, ("window_ms", "factor"), at)
                self.windows.append((
                    number(at, "window_ms", window.get("window_ms"), True),
                    number(at, "factor", window.get("factor", 1.0), True),
                ))
        else:
            raise ConfigError(
                f"{self.name}: kind must be 'threshold' or 'burn_rate', "
                f"got {self.kind!r}"
            )

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
        for window_ms, factor in self.windows:
            base = _sample_at_or_before(series, index, t - window_ms)
            d_bad = sample.get(self.bad, 0.0) - base.get(self.bad, 0.0)
            d_good = sample.get(self.good, 0.0) - base.get(self.good, 0.0)
            total = d_bad + d_good
            rate = d_bad / total if total > 0 else 0.0
            if rate < factor * budget:
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
                        hold = getattr(rule, "for_ms", 0.0)
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
        "kind": "threshold",
        "metric": "fleet_down_slots",
        "op": ">",
        "threshold": 0.0,
        "for_ms": 0.0,
    },
    {
        "name": "service_job_failed",
        "kind": "threshold",
        "metric": "service_jobs_failed",
        "op": ">",
        "threshold": 0.0,
        "for_ms": 0.0,
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


def load_rules(source=None) -> List[AlertRule]:
    """Build rules from a JSON file path, a list of dicts, or None
    (:data:`DEFAULT_RULES`)."""
    if source is None:
        payloads: Sequence[Dict] = DEFAULT_RULES
    elif isinstance(source, (str, Path)):
        loaded = json.loads(Path(source).read_text())
        if isinstance(loaded, dict):
            loaded = loaded.get("rules", [])
        payloads = loaded
    else:
        payloads = source
    return [AlertRule(payload) for payload in payloads]
