"""Subnet-evaluation serving plane (``repro.serving``).

The trained supernet's consumers are architecture-search clients issuing
high volumes of subnet-evaluation queries (GreedyNAS-style loops filter
thousands of candidate paths).  This package opens that read-mostly,
latency-SLO workload on the simulated fleet:

* :mod:`repro.serving.workload` — seeded open-loop load generator
  (Poisson / bursty arrivals, shared-prefix skew, popular-subnet
  repeats), each stream drawn once per deployment;
* :mod:`repro.serving.batcher` — bounded batching with a linger window
  and deterministic load shedding once the queue passes a bound;
* :mod:`repro.serving.cache` — a result cache keyed by subnet digest
  plus shared-prefix reuse of resident layer blocks (the stage context
  manager repurposed read-mostly);
* :mod:`repro.serving.frontend` — the serving engine: leases GPUs from
  a :class:`~repro.service.manager.ClusterManager`, scores batches on
  the simulated pipeline, records per-request timestamps;
* :mod:`repro.serving.metrics` — nearest-rank latency percentiles,
  throughput / hit / shed / SLO stats and the canonical ``BENCH_serving``
  report.

Everything is deterministic: identical configs produce byte-identical
reports (``tests/goldens.json`` pins the demo's).  See
``docs/SERVING.md``.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.serving.batcher": ("BatchPolicy", "BoundedBatcher"),
    "repro.serving.cache": ("LayerBlockCache", "ResultCache", "subnet_digest"),
    "repro.serving.frontend": ("ServingEngine", "ServingInputs", "ServingSpec", "run_bench"),
    "repro.serving.metrics": (
        "format_serving_report", "nearest_rank", "serving_report_json",
    ),
    "repro.serving.workload": ("EvalRequest", "RequestDraws", "WorkloadSpec"),
})
