"""Tasks: the minimal unit of NASPipe scheduling and execution.

Paper §3.2: "The basic scheduling and execution unit in NASPipe's runtime
is a task, which is defined as either a subnet stage i's forward pass or
backward pass on processing one input batch.  Each task is identified by a
task property (forward or backward), subnet ID, and stage ID."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["TaskKind", "Task"]


class TaskKind(enum.Enum):
    FORWARD = "fwd"
    BACKWARD = "bwd"


@dataclass(frozen=True)
class Task:
    """One schedulable unit."""

    subnet_id: int
    stage: int
    kind: TaskKind = TaskKind.FORWARD

    @property
    def is_backward(self) -> bool:
        return self.kind is TaskKind.BACKWARD

    def __str__(self) -> str:
        return f"SN{self.subnet_id}.{self.kind.value}@P{self.stage}"
