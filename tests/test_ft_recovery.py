"""Crash-restart recovery: CSP recovers bitwise, ASP does not.

The acceptance scenario for the fault-tolerance subsystem: a GPU crash
mid-stream, recovery on the same (4) and on a different (8) GPU count,
both bitwise-identical to the uninterrupted CSP run — while the same
scenario under ASP diverges.  The asymmetry is emergent: both policies
run the identical checkpoint/recovery machinery; only CSP's causal-order
invariant makes the consistent cut actually consistent and the resumed
tail timing-independent.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import naspipe, pipedream
from repro.engines.functional_plane import FunctionalPlane
from repro.errors import FaultToleranceError
from repro.ft import (
    Checkpoint,
    FaultEvent,
    FaultSchedule,
    RecoverySpec,
    availability_summary,
    format_availability,
    mtbf_sweep,
    restore_checkpoint,
    run_uninterrupted,
    run_with_recovery,
)
from repro.ft.recovery import MAX_RESTARTS
from repro.nn.optim import MomentumSGD
from repro.seeding import SeedSequenceTree
from repro.supernet.sampler import SubnetStream
from repro.supernet.search_space import get_search_space
from repro.supernet.supernet import Supernet

STEPS = 24
SEED = 11


@pytest.fixture(scope="module")
def rec_space():
    return get_search_space("NLP.c3").scaled(
        name="rec", num_blocks=8, functional_width=16
    )


@pytest.fixture(scope="module")
def csp_baseline(rec_space):
    return run_uninterrupted(
        rec_space, naspipe(), num_gpus=4, steps=STEPS, seed=SEED
    )


@pytest.fixture(scope="module")
def asp_baseline(rec_space):
    return run_uninterrupted(
        rec_space, pipedream(), num_gpus=4, steps=STEPS, seed=SEED
    )


def _crash(baseline, frac=0.5, target=1):
    return FaultSchedule(
        [FaultEvent("gpu_crash", baseline.makespan_ms * frac, target=target)]
    )


# ----------------------------------------------------------------------
# the acceptance scenario
# ----------------------------------------------------------------------
def test_csp_crash_recovery_is_bitwise_on_4_and_8_gpus(
    rec_space, csp_baseline, tmp_path
):
    """GPU crash mid-stream; recover on 4 AND on 8 GPUs; both must match
    the uninterrupted run bit for bit."""
    schedule = _crash(csp_baseline)
    for restart_gpus in (None, 8):
        result = run_with_recovery(
            rec_space,
            naspipe(),
            schedule,
            num_gpus=4,
            steps=STEPS,
            seed=SEED,
            checkpoint_dir=tmp_path / f"g{restart_gpus or 4}",
            spec=RecoverySpec(checkpoint_interval=8, restart_gpus=restart_gpus),
        )
        assert result.num_attempts == 2
        assert result.final_gpus == (restart_gpus or 4)
        assert result.subnets_completed == STEPS
        assert sorted(result.completion_order) == list(range(STEPS))
        assert result.digest == csp_baseline.digest
        assert result.losses == csp_baseline.losses


def test_asp_same_scenario_diverges(rec_space, asp_baseline, tmp_path):
    """The identical crash + elastic-restart scenario under ASP does not
    reproduce the uninterrupted run: per-layer writes are not
    subnet-ordered, so the 'consistent' cut isn't, and the resumed tail
    is timing-dependent."""
    result = run_with_recovery(
        rec_space,
        pipedream(),
        _crash(asp_baseline),
        num_gpus=4,
        steps=STEPS,
        seed=SEED,
        checkpoint_dir=tmp_path,
        spec=RecoverySpec(checkpoint_interval=8, restart_gpus=8),
    )
    assert result.subnets_completed == STEPS
    assert result.digest != asp_baseline.digest


@given(frac=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=10, deadline=None)
def test_csp_recovery_bitwise_for_any_crash_time(frac):
    """Property: wherever the crash lands, CSP recovery reproduces the
    uninterrupted digest — before the first checkpoint (full redo),
    between cuts, or in the drain."""
    import tempfile

    space = get_search_space("NLP.c3").scaled(
        name="rec-prop", num_blocks=6, functional_width=16
    )
    baseline = run_uninterrupted(space, naspipe(), num_gpus=4, steps=16, seed=5)
    schedule = _crash(baseline, frac=frac)
    with tempfile.TemporaryDirectory() as tmp:
        result = run_with_recovery(
            space,
            naspipe(),
            schedule,
            num_gpus=4,
            steps=16,
            seed=5,
            checkpoint_dir=tmp,
            spec=RecoverySpec(checkpoint_interval=4),
        )
    assert result.digest == baseline.digest
    assert result.losses == baseline.losses


# ----------------------------------------------------------------------
# recovery mechanics
# ----------------------------------------------------------------------
def test_crash_before_first_checkpoint_redoes_everything(
    rec_space, csp_baseline, tmp_path
):
    result = run_with_recovery(
        rec_space,
        naspipe(),
        _crash(csp_baseline, frac=0.02),
        num_gpus=4,
        steps=STEPS,
        seed=SEED,
        checkpoint_dir=tmp_path,
        spec=RecoverySpec(checkpoint_interval=8),
    )
    assert result.num_attempts == 2
    assert result.attempts[0].completed_kept == 0  # nothing survived
    assert result.attempts[1].resumed_from == 0
    assert result.digest == csp_baseline.digest


def test_restart_budget_exhaustion_raises(rec_space, csp_baseline, tmp_path):
    # crashes spaced so each fires during the attempt the previous one
    # restarted: MAX_RESTARTS of them still finish, one more does not
    t1 = csp_baseline.makespan_ms * 0.3

    def run(crashes):
        return run_with_recovery(
            rec_space,
            naspipe(),
            FaultSchedule(
                [
                    FaultEvent("gpu_crash", t1 + 200.0 * crash, target=1)
                    for crash in range(crashes)
                ]
            ),
            num_gpus=4,
            steps=STEPS,
            seed=SEED,
            checkpoint_dir=tmp_path / str(crashes),
        )

    assert MAX_RESTARTS == 8
    assert run(MAX_RESTARTS).num_attempts == MAX_RESTARTS + 1
    with pytest.raises(FaultToleranceError, match="budget exhausted: 8 restarts"):
        run(MAX_RESTARTS + 1)


def test_host_crash_takes_down_all_its_stages(rec_space, csp_baseline, tmp_path):
    schedule = FaultSchedule(
        [FaultEvent("host_crash", csp_baseline.makespan_ms * 0.5, target=0)]
    )
    result = run_with_recovery(
        rec_space,
        naspipe(),
        schedule,
        num_gpus=4,
        steps=STEPS,
        seed=SEED,
        checkpoint_dir=tmp_path,
    )
    first = result.results[0]
    assert first.interrupt_kind == "host_crash"
    downs = list(first.trace.events_of("gpu_down"))
    assert len(downs) == 4  # all four stages live on host 0
    assert result.digest == csp_baseline.digest


def test_recovery_onto_heterogeneous_cluster_is_bitwise(
    rec_space, csp_baseline, tmp_path
):
    """Restart on a *slower, unevenly-throttled* replacement cluster:
    timing changes wholesale, bits do not."""
    result = run_with_recovery(
        rec_space,
        naspipe(),
        _crash(csp_baseline),
        num_gpus=4,
        steps=STEPS,
        seed=SEED,
        checkpoint_dir=tmp_path,
        spec=RecoverySpec(checkpoint_interval=8),
        restart_speed_factors=(1.0, 3.0, 0.7, 1.4),
    )
    assert result.num_attempts == 2
    assert result.digest == csp_baseline.digest


def test_stream_slice_preserves_sequence_ids(rec_space):
    stream = SubnetStream.sample(rec_space, SeedSequenceTree(3), 12)
    subnets = list(stream)
    resumed = SubnetStream(subnets[5:], start=5)
    assert resumed.base == 5
    assert resumed[7].subnet_id == 7
    assert len(resumed) == 7
    sliced = SubnetStream(subnets[5:], start=5)  # what a resume at cut 5 consumes
    assert [s.subnet_id for s in sliced] == [s.subnet_id for s in resumed]


# ----------------------------------------------------------------------
# checkpoint round-trip
# ----------------------------------------------------------------------
def test_committed_checkpoint_round_trips(rec_space, csp_baseline, tmp_path):
    """A cut on disk restores into a fresh plane with the exact digest,
    velocity and RNG state it recorded."""
    result = run_with_recovery(
        rec_space,
        naspipe(),
        _crash(csp_baseline),
        num_gpus=4,
        steps=STEPS,
        seed=SEED,
        checkpoint_dir=tmp_path,
        spec=RecoverySpec(checkpoint_interval=8),
    )
    assert result.checkpoint_cuts, "the run committed no checkpoints"
    first_cut_dir = tmp_path / f"ckpt_{result.checkpoint_cuts[0]:06d}"

    plane = FunctionalPlane(
        Supernet(rec_space),
        SeedSequenceTree(SEED),
        functional_batch=8,
        optimizer=MomentumSGD(0.3, 0.9, 5.0),
    )
    checkpoint = restore_checkpoint(first_cut_dir, plane)
    assert checkpoint.cut == result.checkpoint_cuts[0]
    # the restored store holds exactly the cut's bits
    assert plane.store.digest() == checkpoint.digest
    # velocity came back too
    assert checkpoint.velocity_path.exists()
    assert plane.optimizer._velocity
    # and the cached RNG streams resumed mid-sequence
    assert plane.seeds.snapshot_state() == checkpoint.rng_state


def test_store_files_and_cut_files_are_one_format(
    rec_space, csp_baseline, tmp_path
):
    """A ``ParameterStore.save`` file restores through the checkpoint
    path, and a cut's ``params.npz`` loads through ``ParameterStore.load``."""

    def plane():
        return FunctionalPlane(
            Supernet(rec_space),
            SeedSequenceTree(SEED),
            functional_batch=8,
            optimizer=MomentumSGD(0.3, 0.9, 5.0),
        )

    result = run_with_recovery(
        rec_space,
        naspipe(),
        _crash(csp_baseline),
        num_gpus=4,
        steps=STEPS,
        seed=SEED,
        checkpoint_dir=tmp_path,
        spec=RecoverySpec(checkpoint_interval=8),
    )
    cut = Checkpoint.load(tmp_path / f"ckpt_{result.checkpoint_cuts[0]:06d}")

    from_cut = plane()
    assert from_cut.store.load(cut.params_path) == cut.num_layers
    assert from_cut.store.digest() == cut.digest

    # the reverse: a store's own file, dressed as a checkpoint directory
    directory = tmp_path / "from_store"
    directory.mkdir()
    from_cut.store.save(directory / "params.npz")
    stored = Checkpoint(
        cut=cut.cut,
        directory=directory,
        time_ms=0.0,
        digest=cut.digest,
        num_layers=cut.num_layers,
        nbytes=cut.nbytes,
    )
    stored.save_meta()
    restored = plane()
    restore_checkpoint(directory, restored)
    assert restored.store.digest() == cut.digest


def test_rng_snapshot_restore_round_trip():
    seeds = SeedSequenceTree(42)
    gen = seeds.generator("data/batches")
    gen.standard_normal(16)  # advance the stream
    snapshot = seeds.snapshot_state()
    expected = gen.standard_normal(8)

    fresh = SeedSequenceTree(42)
    fresh.restore_state(snapshot)
    assert (fresh.generator("data/batches").standard_normal(8) == expected).all()

    with pytest.raises(ValueError):
        SeedSequenceTree(43).restore_state(snapshot)  # wrong root seed


# ----------------------------------------------------------------------
# availability accounting
# ----------------------------------------------------------------------
def test_availability_summary_and_formatting(rec_space, csp_baseline, tmp_path):
    result = run_with_recovery(
        rec_space,
        naspipe(),
        _crash(csp_baseline),
        num_gpus=4,
        steps=STEPS,
        seed=SEED,
        checkpoint_dir=tmp_path,
        spec=RecoverySpec(checkpoint_interval=8),
    )
    summary = availability_summary(result, csp_baseline)
    assert summary["crashes"] == 1
    assert summary["subnets_completed"] == STEPS
    assert summary["lost_virtual_ms"] > 0
    assert summary["recovery_latency_ms"] > 0
    assert 0 < summary["goodput_ratio"] < 1
    assert summary["digest_matches_baseline"] is True
    text = format_availability(summary)
    assert "IDENTICAL to fault-free run" in text
    assert "goodput" in text


def test_every_total_is_the_sum_over_attempts(rec_space, csp_baseline, tmp_path):
    """Two crashes, three attempts: each derived figure of the record
    reads off ``attempts`` / ``results``."""
    t1 = csp_baseline.makespan_ms * 0.3
    schedule = FaultSchedule(
        [
            FaultEvent("gpu_crash", t1, target=1),
            FaultEvent("task_error", t1 + 60.0, target=2, magnitude=2),
            FaultEvent("gpu_crash", t1 + 200.0, target=1),
        ]
    )
    run = run_with_recovery(
        rec_space,
        naspipe(),
        schedule,
        num_gpus=4,
        steps=STEPS,
        seed=SEED,
        checkpoint_dir=tmp_path,
        spec=RecoverySpec(checkpoint_interval=4, restart_gpus=8),
        degradation=True,
    )
    assert run.num_attempts == len(run.attempts) == len(run.results) == 3
    assert [a.interrupted for a in run.attempts] == [True, True, False]
    assert run.final_gpus == 8 and run.num_gpus == 4
    assert run.final is run.results[-1]
    assert run.digest == csp_baseline.digest

    lost = latency = 0.0
    for record in run.attempts:
        lost += record.lost_virtual_ms
        latency += record.recovery_latency_ms
    assert run.lost_virtual_ms == lost > 0
    assert run.recovery_latency_ms == latency > 0
    assert run.checkpoint_cuts == [
        cut for record in run.attempts for cut in record.checkpoints
    ]
    assert run.checkpoint_cuts
    assert run.fault_count == sum(r.fault_count for r in run.results) == 3
    assert run.task_retries == sum(r.task_retries for r in run.results) > 0
    assert run.mitigation_actions == [
        action for r in run.results for action in r.mitigation_actions
    ]
    assert run.subnets_completed == len(run.completion_order) == STEPS
    assert sum(a.completed_kept for a in run.attempts) == STEPS
    assert sorted(run.completion_order) == list(range(STEPS))
    # the global clock: every crashed attempt's local time plus one
    # restart delay each, then the surviving attempt's makespan
    clock = 0.0
    for result in run.results[:-1]:
        clock += result.interrupt_time_ms + 50.0
    assert run.makespan_ms == clock + run.results[-1].makespan_ms


def test_mtbf_sweep_rows_are_reproducible(rec_space, tmp_path):
    rows = mtbf_sweep(
        rec_space,
        naspipe(),
        mtbf_values_ms=[400.0],
        num_gpus=4,
        steps=12,
        seed=3,
        checkpoint_dir=tmp_path,
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["mtbf_ms"] == 400.0
    assert row["digest_matches_baseline"] is True
    assert row["subnets_completed"] == 12
