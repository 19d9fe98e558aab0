"""Per-tenant usage metering, reconciled against lease lifetimes.

The :class:`UsageMeter` maintains its own per-tenant ledger from the
:class:`~repro.service.manager.ClusterManager`'s usage-observer
callbacks — one entry per (lease incarnation, slot) holding, opened at
``acquire`` and closed at ``release`` or ``revoke`` on the plane's
virtual clock.  Trace-event listeners add the activity counters:
subnets completed, preemptions, requeues, serving requests admitted /
shed / retried.

**Reconciliation rule** (tested at 1e-9): the per-tenant
``gpu_slot_ms`` totals the meter accumulated from observer callbacks
must sum to the slot-time total the manager computes independently from
its own ledger — including across revocations, where a struck slot's
holding closes at revoke time while the lease's surviving (residual)
slots keep accruing until the holder's idempotent release.  The two
paths share no code, so a split/grouping bug on either side breaks the
equality.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["UsageMeter"]


class UsageMeter:
    """Accumulates per-tenant usage; renders the metering report."""

    def __init__(self) -> None:
        #: tenant -> lease_id -> {"slot_ms", "slots", "revoked"}
        self._leases: Dict[str, Dict[int, Dict]] = {}
        #: tenant -> open (lease_id, slot) -> start_ms
        self._open: Dict[tuple, float] = {}
        self._activity: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # manager observer protocol (see ClusterManager.usage_observer)
    # ------------------------------------------------------------------
    def on_usage(self, kind: str, job: str, lease_id: int, slot: int, now: float, cause: str = "") -> None:
        if kind == "acquire":
            self._open[(job, lease_id, slot)] = now
            lease = self._leases.setdefault(job, {}).setdefault(
                lease_id, {"slot_ms": 0.0, "slots": 0, "revoked": False}
            )
            lease["slots"] += 1
        elif kind == "close":
            start = self._open.pop((job, lease_id, slot), None)
            if start is None:
                return
            lease = self._leases[job][lease_id]
            lease["slot_ms"] += now - start
            if cause == "revoked":
                lease["revoked"] = True

    # ------------------------------------------------------------------
    # activity counters (fed by trace-event listeners / direct calls)
    # ------------------------------------------------------------------
    def bump(self, tenant: str, field: str, amount: float = 1.0) -> None:
        activity = self._activity.setdefault(tenant, {})
        activity[field] = activity.get(field, 0.0) + amount

    # ------------------------------------------------------------------
    def tenant_gpu_slot_ms(self) -> Dict[str, float]:
        return {
            tenant: sum(entry["slot_ms"] for entry in leases.values())
            for tenant, leases in sorted(self._leases.items())
        }

    def report(self, manager=None) -> Dict:
        """The metering report; with ``manager`` given, includes the
        reconciliation block against its independent ledger."""
        tenants: Dict[str, Dict] = {}
        names = sorted(set(self._leases) | set(self._activity))
        for tenant in names:
            leases = self._leases.get(tenant, {})
            activity = self._activity.get(tenant, {})
            tenants[tenant] = {
                "gpu_slot_ms": sum(e["slot_ms"] for e in leases.values()),
                "leases": [
                    {
                        "lease": lease_id,
                        "slots": leases[lease_id]["slots"],
                        "gpu_slot_ms": leases[lease_id]["slot_ms"],
                        "revoked": leases[lease_id]["revoked"],
                    }
                    for lease_id in sorted(leases)
                ],
                "subnets_completed": int(activity.get("subnets_completed", 0)),
                "preemptions": int(activity.get("preemptions", 0)),
                "requeues": int(activity.get("requeues", 0)),
                "requests_admitted": int(activity.get("requests_admitted", 0)),
                "requests_shed": int(activity.get("requests_shed", 0)),
                "requests_retried": int(activity.get("requests_retried", 0)),
            }
        report: Dict = {"tenants": tenants}
        if manager is not None:
            tenant_total = sum(t["gpu_slot_ms"] for t in tenants.values())
            ledger_total = manager.leased_slot_ms_total()
            residual = abs(tenant_total - ledger_total)
            report["reconciliation"] = {
                "tenant_total_ms": tenant_total,
                "ledger_total_ms": ledger_total,
                "residual_ms": residual,
                "ok": residual <= 1e-9,
            }
        return report

    def format_report(self, report: Optional[Dict] = None) -> str:
        """Stable human-readable rendering of :meth:`report`."""
        if report is None:
            report = self.report()
        lines: List[str] = [
            f"{'tenant':<14s} {'gpu_slot_ms':>12s} {'leases':>6s} "
            f"{'revoked':>7s} {'subnets':>7s} {'preempt':>7s} "
            f"{'requeue':>7s} {'adm':>5s} {'shed':>5s}"
        ]
        for tenant, row in report["tenants"].items():
            revoked = sum(1 for lease in row["leases"] if lease["revoked"])
            lines.append(
                f"{tenant:<14s} {row['gpu_slot_ms']:>12.3f} "
                f"{len(row['leases']):>6d} {revoked:>7d} "
                f"{row['subnets_completed']:>7d} {row['preemptions']:>7d} "
                f"{row['requeues']:>7d} {row['requests_admitted']:>5d} "
                f"{row['requests_shed']:>5d}"
            )
        reconciliation = report.get("reconciliation")
        if reconciliation is not None:
            verdict = "OK" if reconciliation["ok"] else "MISMATCH"
            lines.append(
                f"reconciliation: tenants "
                f"{reconciliation['tenant_total_ms']:.6f} ms vs ledger "
                f"{reconciliation['ledger_total_ms']:.6f} ms "
                f"(residual {reconciliation['residual_ms']:.2e}) {verdict}"
            )
        return "\n".join(lines)
