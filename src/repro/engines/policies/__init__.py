"""Synchronisation policies: CSP (NASPipe), BSP (GPipe/VPipe), ASP
(PipeDream), SSP (stale-synchronous extension)."""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.engines.policies.base": ("SyncPolicy",),
    "repro.engines.policies.csp": ("CspPolicy",),
    "repro.engines.policies.bsp": ("BspPolicy",),
    "repro.engines.policies.asp": ("AspPolicy", "SspPolicy"),
})


#: ``config.sync`` → the exported policy class that implements it
_BY_SYNC = {"csp": "CspPolicy", "bsp": "BspPolicy", "asp": "AspPolicy", "ssp": "SspPolicy"}


def make_policy(config, stages: int) -> "SyncPolicy":
    """Instantiate the policy named by ``config.sync``."""
    if config.sync not in _BY_SYNC:
        raise ValueError(f"unknown sync mode {config.sync!r}")
    return __getattr__(_BY_SYNC[config.sync])(config, stages)
