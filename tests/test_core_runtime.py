"""CspStageState (Algorithm 1 bookkeeping) and Task tests."""

import pytest

from repro.core.runtime import CspStageState
from repro.core.task import Task, TaskKind
from repro.errors import SchedulingError


def _sort_key(task):
    """A deterministic order over tasks: (subnet, stage, kind name)."""
    return (task.subnet_id, task.stage, task.kind.value)


def test_task_properties_and_str():
    fwd = Task(3, 1, TaskKind.FORWARD)
    bwd = Task(3, 1, TaskKind.BACKWARD)
    assert fwd.kind is TaskKind.FORWARD and not fwd.is_backward
    assert bwd.is_backward and bwd.kind is not TaskKind.FORWARD
    assert str(fwd) == "SN3.fwd@P1"
    assert _sort_key(bwd) < _sort_key(fwd)  # "bwd" sorts before "fwd"
    assert _sort_key(Task(0, 0)) < _sort_key(Task(1, 0))


def test_queue_kept_sorted_by_id():
    state = CspStageState(stage=0)
    state.enqueue_forward(5)
    state.enqueue_forward(2)
    state.enqueue_forward(9)
    assert state.queue == [2, 5, 9]


def test_duplicate_arrivals_raise():
    state = CspStageState(stage=0)
    state.enqueue_forward(1)
    with pytest.raises(SchedulingError):
        state.enqueue_forward(1)
    state.enqueue_backward(1)
    with pytest.raises(SchedulingError):
        state.enqueue_backward(1)


def test_pop_forward_moves_to_busy():
    state = CspStageState(stage=0)
    state.enqueue_forward(4)
    state.pop_forward(4)
    assert state.queue == []
    assert 4 in state.busy_subnets
    with pytest.raises(SchedulingError):
        state.pop_forward(4)


def test_backward_ready_lowest_first():
    state = CspStageState(stage=0)
    assert state.pop_backward() is None
    state.enqueue_backward(7)
    state.enqueue_backward(3)
    assert state.pop_backward() == 3
    assert state.pop_backward() == 7


def test_finish_backward_frees_the_stage():
    state = CspStageState(stage=0)
    for sid in (0, 1, 2):
        state.enqueue_forward(sid)
        state.pop_forward(sid)
    state.finish_backward(0)
    state.finish_backward(2)
    assert state.busy_subnets == {1}
    state.finish_backward(1)
    assert state.busy_subnets == set()


def test_has_work():
    state = CspStageState(stage=0)
    assert not (state.queue or state.backward_ready)
    state.enqueue_forward(0)
    assert state.queue or state.backward_ready
