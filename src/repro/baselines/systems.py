"""System configuration factories (paper §5 "Baseline Systems" + §5.3).

Each factory returns a :class:`~repro.config.SystemConfig`; feed it to a
:class:`~repro.engines.pipeline.PipelineEngine` to run that system.

=====================  ====  ===========  ========  =====================
system                 sync  partitioning context    distinguishing trait
=====================  ====  ===========  ========  =====================
NASPipe                CSP   balanced     cached 3×  scheduler+predictor+mirroring
GPipe                  BSP   static       full       rematerialisation, flush
PipeDream              ASP   static       full       1F1B, async updates
VPipe                  BSP   static       cached 1×  parameter swapping
SSP(s)                 SSP   static       full       bounded staleness
NASPipe w/o scheduler  CSP   balanced     cached 3×  in-order injection only
NASPipe w/o predictor  CSP   balanced     full       no swapping → small batch
NASPipe w/o mirroring  CSP   static       cached 3×  stuck with static partition
=====================  ====  ===========  ========  =====================
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.payload import accepted, reject_unknown
from repro.supernet.search_space import SearchSpace, get_search_space

__all__ = [
    "naspipe",
    "gpipe",
    "pipedream",
    "vpipe",
    "ssp",
    "naspipe_wo_scheduler",
    "naspipe_wo_predictor",
    "naspipe_wo_mirroring",
    "ALL_SYSTEMS",
    "ABLATIONS",
    "system_by_name",
    "resolve_target",
]


def naspipe(**overrides) -> SystemConfig:
    """The full system: CSP + balanced partitions + predictor + mirroring."""
    config = SystemConfig(
        name="NASPipe",
        sync="csp",
        partitioning="balanced",
        context="cached",
        cache_subnets=3.0,
        predictor=True,
        recompute=True,
        mirroring=True,
    )
    return config.with_overrides(**overrides) if overrides else config


def gpipe(**overrides) -> SystemConfig:
    """GPipe: BSP flushes, full supernet resident, rematerialisation."""
    config = SystemConfig(
        name="GPipe",
        sync="bsp",
        partitioning="static",
        context="full",
        predictor=False,
        recompute=True,
        mirroring=False,
    )
    return config.with_overrides(**overrides) if overrides else config


def pipedream(**overrides) -> SystemConfig:
    """PipeDream: ASP (1F1B, async commits), no rematerialisation."""
    config = SystemConfig(
        name="PipeDream",
        sync="asp",
        partitioning="static",
        context="full",
        predictor=False,
        recompute=False,
        mirroring=False,
    )
    return config.with_overrides(**overrides) if overrides else config


def vpipe(**overrides) -> SystemConfig:
    """VPipe: BSP + parameter swapping with a one-subnet cache."""
    config = SystemConfig(
        name="VPipe",
        sync="bsp",
        partitioning="static",
        context="cached",
        cache_subnets=1.0,
        predictor=False,
        recompute=True,
        mirroring=False,
    )
    return config.with_overrides(**overrides) if overrides else config


def ssp(staleness: int = 4, **overrides) -> SystemConfig:
    """Stale-synchronous extension baseline (bounded staleness, no causal
    order) — demonstrates CSP is not merely staleness reduction."""
    config = SystemConfig(
        name=f"SSP(s={staleness})",
        sync="ssp",
        partitioning="static",
        context="full",
        predictor=False,
        recompute=True,
        mirroring=False,
        staleness=staleness,
    )
    return config.with_overrides(**overrides) if overrides else config


# ----------------------------------------------------------------------
# §5.3 ablations
# ----------------------------------------------------------------------
def naspipe_wo_scheduler(**overrides) -> SystemConfig:
    """CSP without aggressive reordering: only the head of each stage
    queue may run, so a blocked subnet stalls everything behind it —
    "finish the execution of a pipeline before injecting the next"."""
    return naspipe(name="NASPipe w/o scheduler", in_order_only=True, **overrides)


def naspipe_wo_predictor(**overrides) -> SystemConfig:
    """No context prediction: the whole supernet is stored in GPU memory,
    shrinking the supported batch to GPipe's."""
    return naspipe(
        name="NASPipe w/o predictor", predictor=False, context="full", **overrides
    )


def naspipe_wo_mirroring(**overrides) -> SystemConfig:
    """No mirroring: every subnet is stuck with the static partition's
    imbalance (the slowest stage bottlenecks each subnet)."""
    return naspipe(
        name="NASPipe w/o mirroring",
        mirroring=False,
        partitioning="static",
        **overrides,
    )


_FACTORIES: Dict[str, Callable[..., SystemConfig]] = {
    "NASPipe": naspipe,
    "GPipe": gpipe,
    "PipeDream": pipedream,
    "VPipe": vpipe,
    "NASPipe w/o scheduler": naspipe_wo_scheduler,
    "NASPipe w/o predictor": naspipe_wo_predictor,
    "NASPipe w/o mirroring": naspipe_wo_mirroring,
}

#: The four systems of Figures 4/5 and Table 2, in paper order.
ALL_SYSTEMS: List[str] = ["NASPipe", "GPipe", "PipeDream", "VPipe"]

#: The four systems of Figure 6.
ABLATIONS: List[str] = [
    "NASPipe",
    "NASPipe w/o scheduler",
    "NASPipe w/o predictor",
    "NASPipe w/o mirroring",
]


def system_by_name(name: str, **overrides) -> SystemConfig:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; known: {sorted(_FACTORIES)}"
        ) from None
    return factory(**overrides)


def resolve_target(
    space: str,
    space_overrides: Optional[Mapping] = None,
    system: str = "NASPipe",
    overrides: Optional[Mapping] = None,
    path: str = "config",
) -> Tuple[SearchSpace, SystemConfig]:
    """What a config trains and how: its ``space`` (+ ``space_overrides``)
    and ``system`` (+ ``overrides``) keys as objects.  Every plane's
    config goes through here, so an unknown override field or system is
    a :class:`ConfigError` naming ``path`` rather than a ``TypeError``
    from a dataclass constructor."""
    space_overrides, overrides = space_overrides or {}, overrides or {}
    reject_unknown(
        space_overrides, accepted(SearchSpace), f"{path}.space_overrides"
    )
    reject_unknown(overrides, accepted(SystemConfig), f"{path}.overrides")
    if system not in _FACTORIES:
        raise ConfigError(
            f"{path}.system: unknown system {system!r}; "
            f"known: {sorted(_FACTORIES)}"
        )
    resolved = get_search_space(space)
    if space_overrides:
        resolved = resolved.scaled(**space_overrides)
    return resolved, _FACTORIES[system](**overrides)
