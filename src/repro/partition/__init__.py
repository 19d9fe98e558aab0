"""Subnet/stage partitioning strategies.

NASPipe gives *every* subnet its own balanced D-partition (equal profiled
time per stage), made possible by layer mirroring; baseline systems pin a
static block-range partition of the supernet.  The difference is one of
the paper's three performance levers (§5.3's "w/o mirroring" ablation).
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.partition.balanced": ("Partition", "balanced_partition"),
    "repro.partition.static": ("static_partition_for_space",),
    "repro.partition.mirror": ("MirrorRegistry",),
})
