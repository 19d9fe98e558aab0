"""Preconfigured systems: NASPipe, the paper's three baselines, Retiarii's
parameter-server pattern, the SSP extension, and the §5.3 ablations."""

from repro.baselines.systems import (
    ALL_SYSTEMS,
    ABLATIONS,
    gpipe,
    naspipe,
    naspipe_wo_mirroring,
    naspipe_wo_predictor,
    naspipe_wo_scheduler,
    pipedream,
    resolve_target,
    ssp,
    system_by_name,
    vpipe,
)
from repro.baselines.retiarii_ps import RetiariiParameterServer

__all__ = [
    "ALL_SYSTEMS",
    "ABLATIONS",
    "naspipe",
    "gpipe",
    "pipedream",
    "vpipe",
    "ssp",
    "naspipe_wo_scheduler",
    "naspipe_wo_predictor",
    "naspipe_wo_mirroring",
    "system_by_name",
    "resolve_target",
    "RetiariiParameterServer",
]
