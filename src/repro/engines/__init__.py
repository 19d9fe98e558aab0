"""Execution engines: pipelined (simulated cluster) and sequential.

* :class:`PipelineEngine` runs a subnet stream through the discrete-event
  cluster under a sync policy (CSP/BSP/ASP/SSP), optionally carrying a
  :class:`FunctionalPlane` that performs the real numpy training in event
  order — the source of loss curves, parameter digests and access logs.
* :class:`SequentialEngine` is the ground truth: one subnet at a time in
  sequence-ID order, the semantics CSP must be bitwise equivalent to.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.engines.functional_plane": ("FunctionalPlane",),
    "repro.engines.intra": ("IntraSubnetEngine", "IntraSubnetResult"),
    "repro.engines.pipeline": ("PipelineEngine", "PipelineResult"),
    "repro.engines.sequential": ("SequentialEngine", "SequentialResult"),
})
