"""Preconfigured systems: NASPipe, the paper's three baselines, the SSP
extension, and the §5.3 ablations."""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.baselines.systems": (
        "ALL_SYSTEMS", "ABLATIONS", "gpipe", "naspipe", "naspipe_wo_mirroring",
        "naspipe_wo_predictor", "naspipe_wo_scheduler", "pipedream", "resolve_target",
        "ssp", "system_by_name", "vpipe",
    ),
})
