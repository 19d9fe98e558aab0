"""Sweep sharding: the one ordered map behind every ``--jobs`` flag."""

from __future__ import annotations

from typing import Callable, Iterable, List, TypeVar

__all__ = ["ordered_map"]

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], tasks: Iterable[T], jobs: int) -> List[R]:
    """``[fn(task) for task in tasks]`` over ``jobs`` worker processes.

    Results are in task order whatever order workers finish in, and
    ``jobs <= 1`` runs in-process: the serial run is the sharded run with
    one worker.  A pool needs a module-level ``fn`` and picklable tasks.
    """
    if jobs <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))
