"""Replay manifest tests: record, serialise, replay, detect tampering."""

import pytest

from repro.errors import ReproducibilityError
from repro.replay import RunManifest, execute_manifest, record_run, verify_replay

_KWARGS = dict(
    space_overrides={"num_blocks": 12, "functional_width": 16},
    num_gpus=4,
    seed=11,
    steps=16,
    batch=32,
)


@pytest.fixture(scope="module")
def manifest():
    return record_run("NLP.c3", "NASPipe", **_KWARGS)


def test_record_fills_outcome(manifest):
    assert manifest.digest is not None
    assert len(manifest.losses) == 16
    assert sorted(manifest.completion_order) == list(range(16))
    assert manifest.makespan_ms > 0
    # one engine incarnation: the recovery fields hold their plain values
    assert manifest.attempts == 1
    assert manifest.checkpoint_cuts == []
    assert manifest.mitigation_actions == []
    result = execute_manifest(manifest)
    assert manifest.completion_order == result.completion_order
    times = result.trace.subnet_completion_times
    assert [times[sid] for sid in result.completion_order] == sorted(times.values())


def test_verify_replay_passes(manifest):
    result = verify_replay(manifest)
    assert result.digest == manifest.digest


def test_json_roundtrip(manifest, tmp_path):
    path = tmp_path / "run.json"
    manifest.save(path)
    loaded = RunManifest.load(path)
    assert loaded == manifest
    verify_replay(loaded)


def test_tampered_digest_detected(manifest):
    tampered = RunManifest.from_json(manifest.to_json())
    tampered.digest = "0" * 64
    with pytest.raises(ReproducibilityError):
        verify_replay(tampered)


def test_tampered_loss_detected(manifest):
    tampered = RunManifest.from_json(manifest.to_json())
    key = next(iter(tampered.losses))
    tampered.losses[key] += 1.0
    with pytest.raises(ReproducibilityError):
        verify_replay(tampered)


def test_unrecorded_manifest_rejected(manifest):
    blank = RunManifest.from_json(manifest.to_json())
    blank.digest = None
    with pytest.raises(ReproducibilityError):
        verify_replay(blank)


def test_version_gate(manifest):
    payload = manifest.to_json().replace('"version": 1', '"version": 99')
    with pytest.raises(ReproducibilityError):
        RunManifest.from_json(payload)


def test_non_csp_manifest_still_replays_deterministically():
    """BSP is not reproducible *across cluster sizes*, but any single
    configuration replays bitwise — determinism and causal reproducibility
    are different properties, and replay only needs the former."""
    manifest = record_run("NLP.c3", "GPipe", **_KWARGS)
    verify_replay(manifest)


def test_different_seeds_give_different_digests():
    a = record_run("NLP.c3", "NASPipe", **{**_KWARGS, "seed": 1})
    b = record_run("NLP.c3", "NASPipe", **{**_KWARGS, "seed": 2})
    assert a.digest != b.digest


def test_manifest_records_the_mitigation_sequence():
    """A straggling cluster with mitigation armed: the actions the run
    took are a recorded outcome, read straight off the result."""
    manifest = record_run(
        "NLP.c3",
        "NASPipe",
        speed_factors=[1.0, 2.5, 1.0, 1.0],
        degradation=True,
        **{**_KWARGS, "steps": 20},
    )
    assert any(a["action"] == "rebalance" for a in manifest.mitigation_actions)
    assert verify_replay(manifest).mitigation_actions == manifest.mitigation_actions


#: ``record_run("NLP.c3", "NASPipe", space_overrides={"num_blocks": 8,
#: "functional_width": 16}, num_gpus=4, seed=11, steps=12, batch=32,
#: speed_factors=[1.0, 2.5, 1.0, 1.0], degradation=True).to_json()`` as
#: written while ``degradation`` still held the thresholds dict
_THRESHOLDS_MANIFEST = """\
{
  "attempts": 1,
  "batch": 32,
  "checkpoint_cuts": [],
  "checkpoint_interval": null,
  "completion_order": [
    0,
    1,
    2,
    3,
    4,
    5,
    6,
    8,
    7,
    11,
    9,
    10
  ],
  "degradation": {
    "admission_control": true,
    "ewma_alpha": 0.25,
    "link_enter_ratio": 0.3,
    "link_exit_ratio": 0.6,
    "max_weight": 4.0,
    "min_samples": 4,
    "min_window": 2,
    "prefetch_throttle": true,
    "rebalance": true,
    "stall_enter_ratio": 0.5,
    "stall_exit_ratio": 0.25,
    "straggler_enter_ratio": 1.6,
    "straggler_exit_ratio": 1.25,
    "weight_quantum": 0.25,
    "window_shrink": 2
  },
  "digest": "9d867ea6d83ebeca15cbfad01bb1edffaa2de951a80f6cdcda9d65c0b8fc5c90",
  "fault_events": [],
  "functional_batch": 8,
  "learning_rate": 0.3,
  "losses": {
    "0": 2.817624568939209,
    "1": 2.6542134284973145,
    "10": 2.729926586151123,
    "11": 2.6234230995178223,
    "2": 2.9393274784088135,
    "3": 2.5529799461364746,
    "4": 2.7187561988830566,
    "5": 2.9770889282226562,
    "6": 1.394237995147705,
    "7": 2.5362589359283447,
    "8": 2.4030284881591797,
    "9": 2.272911548614502
  },
  "makespan_ms": 583.6682956518553,
  "max_grad_norm": 5.0,
  "mitigation_actions": [
    {
      "action": "rebalance",
      "active": true,
      "target": 1,
      "time_ms": 52.760309197599504,
      "value": 2.5
    }
  ],
  "momentum": 0.9,
  "num_gpus": 4,
  "recovery_gpus": null,
  "seed": 11,
  "space_name": "NLP.c3",
  "space_overrides": {
    "functional_width": 16,
    "num_blocks": 8
  },
  "speed_factors": [
    1.0,
    2.5,
    1.0,
    1.0
  ],
  "steps": 12,
  "stream_kind": "spos",
  "system_name": "NASPipe",
  "system_overrides": {},
  "version": 1
}
"""


def test_a_manifest_holding_the_thresholds_dict_replays_armed():
    manifest = RunManifest.from_json(_THRESHOLDS_MANIFEST)
    assert manifest.degradation["min_window"] == 2
    assert [a["action"] for a in manifest.mitigation_actions] == ["rebalance"]
    result = verify_replay(manifest)
    assert result.mitigation_actions == manifest.mitigation_actions
    assert result.digest == manifest.digest
    # the same run recorded now stores the flag, and the same outcome
    fresh = record_run(
        "NLP.c3",
        "NASPipe",
        space_overrides={"num_blocks": 8, "functional_width": 16},
        num_gpus=4,
        seed=11,
        steps=12,
        batch=32,
        speed_factors=[1.0, 2.5, 1.0, 1.0],
        degradation=True,
    )
    assert fresh.degradation is True
    assert fresh.digest == manifest.digest
    assert fresh.mitigation_actions == manifest.mitigation_actions


# ----------------------------------------------------------------------
# faulted-run manifests (repro.ft)
# ----------------------------------------------------------------------
_FAULT_KWARGS = dict(
    space_overrides={"num_blocks": 8, "functional_width": 16},
    num_gpus=4,
    seed=11,
    steps=16,
    checkpoint_interval=8,
)


@pytest.fixture(scope="module")
def faulted_manifest():
    from repro.ft import FaultEvent, FaultSchedule

    schedule = FaultSchedule([FaultEvent("gpu_crash", 400.0, target=1)])
    return record_run(
        "NLP.c3",
        "NASPipe",
        fault_events=schedule.to_payload(),
        **_FAULT_KWARGS,
    )


def test_faulted_manifest_records_recovery_outcome(faulted_manifest):
    assert faulted_manifest.fault_events
    assert faulted_manifest.attempts == 2
    assert faulted_manifest.checkpoint_cuts == [8]
    assert faulted_manifest.digest is not None
    assert sorted(faulted_manifest.completion_order) == list(range(16))
    assert faulted_manifest.mitigation_actions == []  # no policy armed


def test_faulted_manifest_verifies_bitwise(faulted_manifest):
    result = verify_replay(faulted_manifest)
    assert result.num_attempts == 2


def test_faulted_manifest_json_roundtrip(faulted_manifest, tmp_path):
    path = tmp_path / "faulted.json"
    faulted_manifest.save(path)
    loaded = RunManifest.load(path)
    assert loaded == faulted_manifest
    verify_replay(loaded)


def test_faulted_manifest_matches_fault_free_digest(faulted_manifest):
    """repro-check for faulted runs: the crash-restart history lands on
    the same bits as the never-crashed manifest."""
    clean = record_run(
        "NLP.c3",
        "NASPipe",
        **{k: v for k, v in _FAULT_KWARGS.items() if k != "checkpoint_interval"},
    )
    assert faulted_manifest.digest == clean.digest


def test_completion_length_mismatch_fails_loudly(manifest):
    tampered = RunManifest.from_json(manifest.to_json())
    tampered.completion_order = tampered.completion_order[:-2]
    del tampered.losses[next(iter(tampered.losses))]
    with pytest.raises(ReproducibilityError, match="not the same length"):
        verify_replay(tampered)


def test_loss_key_set_mismatch_fails_loudly(manifest):
    tampered = RunManifest.from_json(manifest.to_json())
    removed = next(iter(tampered.losses))
    loss = tampered.losses.pop(removed)
    tampered.losses["999"] = loss  # same count, different subnet ids
    with pytest.raises(ReproducibilityError, match="loss set differs"):
        verify_replay(tampered)


def test_tampered_checkpoint_cuts_detected(faulted_manifest):
    tampered = RunManifest.from_json(faulted_manifest.to_json())
    tampered.checkpoint_cuts = [4]
    with pytest.raises(ReproducibilityError, match="checkpoint cuts"):
        verify_replay(tampered)
