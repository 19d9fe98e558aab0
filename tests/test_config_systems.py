"""SystemConfig validation and baseline factory tests."""

import pytest

from repro.baselines import (
    ABLATIONS,
    ALL_SYSTEMS,
    gpipe,
    naspipe,
    naspipe_wo_mirroring,
    naspipe_wo_predictor,
    naspipe_wo_scheduler,
    pipedream,
    ssp,
    system_by_name,
    vpipe,
)
from repro.config import SystemConfig
from repro.errors import ConfigError


def test_naspipe_config_shape():
    config = naspipe()
    assert config.sync == "csp"
    assert config.partitioning == "balanced"
    assert config.context == "cached"
    assert config.cache_subnets == 3.0
    assert config.predictor and config.mirroring and config.recompute


def test_baseline_configs_shape():
    assert gpipe().sync == "bsp" and gpipe().context == "full"
    assert pipedream().sync == "asp" and not pipedream().recompute
    assert vpipe().sync == "bsp" and vpipe().cache_subnets == 1.0
    assert ssp(3).staleness == 3
    for name in ALL_SYSTEMS + ABLATIONS:
        assert system_by_name(name).name == name


def test_ablation_configs():
    assert naspipe_wo_scheduler().in_order_only
    assert naspipe_wo_predictor().context == "full"
    assert not naspipe_wo_predictor().predictor
    assert naspipe_wo_mirroring().partitioning == "static"


def test_unknown_system_raises():
    with pytest.raises(KeyError):
        system_by_name("MegaPipe")


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        SystemConfig(name="x", sync="turbo")
    with pytest.raises(ConfigError):
        SystemConfig(name="x", partitioning="diagonal")
    with pytest.raises(ConfigError):
        SystemConfig(name="x", context="quantum")
    with pytest.raises(ConfigError):
        # balanced partitions need mirroring
        SystemConfig(name="x", partitioning="balanced", mirroring=False)
    with pytest.raises(ConfigError):
        SystemConfig(name="x", cache_subnets=0)
    with pytest.raises(ConfigError):
        # predictor requires cached context
        SystemConfig(
            name="x", context="full", predictor=True,
            partitioning="static", mirroring=False,
        )


@pytest.mark.parametrize(
    "build, names",
    [
        (lambda: naspipe(inject_window=0), ["inject_window", ">= 1"]),
        (lambda: naspipe(inject_window=-3), ["inject_window", ">= 1"]),
        (lambda: gpipe(bulk_size=0), ["bulk_size", ">= 1"]),
        (lambda: gpipe(bulk_size=-1), ["bulk_size", ">= 1"]),
        (lambda: naspipe(predictor_depth=0), ["predictor_depth", ">= 1"]),
        (lambda: naspipe(predictor_depth=-1), ["predictor_depth", ">= 1"]),
        (lambda: ssp(-2), ["staleness", ">= 0"]),
    ],
)
def test_out_of_range_fields_rejected_at_construction(build, names):
    """These reach SystemConfig through JSON ``overrides``; before the
    check they deadlocked mid-run or were silently ignored."""
    with pytest.raises(ConfigError) as raised:
        build()
    assert all(name in str(raised.value) for name in names)


def test_range_checks_leave_valid_edges_alone():
    assert naspipe(inject_window=1).default_window(8) == 1
    assert gpipe(bulk_size=1).default_bulk(8) == 1
    assert ssp(0).staleness == 0
    # depth is only read when the predictor is on
    assert not gpipe(predictor_depth=0).predictor


def test_with_overrides_returns_new_config():
    base = naspipe()
    tweaked = base.with_overrides(inject_window=12)
    assert tweaked.inject_window == 12
    assert base.inject_window is None
    assert tweaked.name == base.name


def test_default_windows_scale_with_stages():
    assert naspipe().default_window(8) > naspipe().default_window(4)
    assert pipedream().default_window(8) == 8
    assert gpipe().default_window(8) == gpipe().default_bulk(8)


def test_gpipe_bulk_gives_paper_bubble():
    from engine_reference import gpipe_theory_bubble

    bulk = gpipe().default_bulk(8)
    bubble = gpipe_theory_bubble(8, bulk)
    assert 0.5 < bubble < 0.65  # the paper's constant 0.57 regime


def test_explicit_bulk_and_window_respected():
    assert gpipe(bulk_size=9).default_bulk(8) == 9
    assert naspipe(inject_window=17).default_window(8) == 17
