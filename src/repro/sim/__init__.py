"""Deterministic discrete-event simulation of a GPU cluster.

This package stands in for the paper's testbed (8 hosts × 4 Nvidia 2080Ti,
PCIe 3.0 ×16, 40 GbE).  It models exactly the resources the paper's claims
depend on:

* per-GPU compute occupancy (one task at a time) with busy-interval
  tracing — source of the bubble-ratio and ALU-utilisation metrics;
* one asynchronous copy engine per GPU for CPU↔GPU parameter swaps over
  PCIe (15 760 MB/s), overlapping compute, FIFO per GPU;
* FIFO inter-stage links for activation/gradient transfers (867 MB/s
  effective, the paper's measured ceiling);
* a virtual clock with deterministic tie-breaking, so a simulation is a
  pure function of its inputs.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.sim.clock": ("EventQueue", "ScheduledEvent"),
    "repro.sim.engine": ("SimulationEngine",),
    "repro.sim.devices": ("CopyEngine", "GpuDevice", "Link"),
    "repro.sim.cluster": ("Cluster", "ClusterSpec"),
    "repro.sim.trace": ("BusyInterval", "ExecutionTrace"),
})
