"""Multi-tenant job service above the engine (``repro.service``).

The engine layer answers "how does *one* job run on *one* cluster";
this package answers "how do *many* jobs share *one* fleet" — the
operating layer NASPipe's reproducibility guarantee makes cheap, because
a CSP job's bits do not depend on when, where, or on how many GPUs it
ran:

* :mod:`repro.service.manager` — :class:`ClusterManager`, the
  fleet-slot owner: grants disjoint, deterministic GPU leases;
* :mod:`repro.service.lease` — :class:`DeviceLease`, the handle an
  engine materializes its device plane from;
* :mod:`repro.service.scheduler` — :class:`JobScheduler`:
  admission queue, priority-weighted fair-share allocation, elastic
  grow/shrink/preemption at consistent segment cuts, and bitwise
  per-tenant determinism (verified against solo baselines).

Entry points: ``naspipe serve jobs.json`` on the command line,
:func:`run_service` programmatically.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.service.lease": ("DeviceLease",),
    "repro.service.manager": ("ClusterManager",),
    "repro.service.scheduler": (
        "JobScheduler", "JobSpec", "fair_share", "format_service_report", "run_service",
        "service_report_json", "solo_verdict",
    ),
})
