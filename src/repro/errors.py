"""Exception hierarchy for the NASPipe reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Specific subclasses carry
the context a caller needs to recover (e.g. which GPU ran out of memory).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An experiment or system configuration is invalid."""


class SearchSpaceError(ReproError):
    """A search-space definition or subnet encoding is malformed."""


class PartitionError(ReproError):
    """A subnet could not be partitioned into the requested stages."""


class SchedulingError(ReproError):
    """The pipeline scheduler reached an inconsistent state."""


class DependencyViolationError(SchedulingError):
    """A task was executed in violation of a CSP causal dependency.

    Raised by the runtime's self-check; under correct operation it never
    fires.  Its presence in tests is what makes Definition 2 enforceable.
    """

    def __init__(self, task: object, blocking_subnet: int, layer: object) -> None:
        self.task = task
        self.blocking_subnet = blocking_subnet
        self.layer = layer
        super().__init__(
            f"task {task} ran before subnet {blocking_subnet} released "
            f"shared layer {layer}"
        )


class GpuOutOfMemoryError(ReproError):
    """A simulated GPU exceeded its memory capacity."""

    def __init__(self, gpu_id: int, requested: int, available: int) -> None:
        self.gpu_id = gpu_id
        self.requested = requested
        self.available = available
        super().__init__(
            f"GPU {gpu_id}: requested {requested} bytes, "
            f"only {available} available"
        )


class SimulationError(ReproError):
    """The discrete-event engine reached an invalid state (e.g. deadlock)."""


class DeadlockError(SimulationError):
    """No runnable event remains but work is outstanding.

    ``blocked`` (when the engine can provide it) is a per-stage dump of
    the forward queues with each queued subnet's first unreleased
    ``(blocking subnet, layer)`` edge from the
    :class:`~repro.core.dependency.DependencyTracker`, plus the
    backward-ready lists — the evidence needed to see *which* causal
    edge wedged the pipeline instead of a silently-truncated result.
    A stage whose dump carries ``"runnable": <subnet id>`` was idle with
    work the policy would have dispatched — nobody polled it — and the
    message says so.
    """

    def __init__(self, pending: object, blocked: object = None) -> None:
        self.pending = pending
        self.blocked = blocked
        message = f"pipeline deadlocked with pending work: {pending}"
        if blocked:
            message += f"; blocked edges by stage: {blocked}"
            for stage, dump in blocked.items():
                if isinstance(dump, dict) and dump.get("runnable") is not None:
                    message += (
                        f"; stage {stage} had runnable work but was never "
                        "woken — wake-set bug"
                    )
        super().__init__(message)


class ReproducibilityError(ReproError):
    """Two runs that must match bitwise did not."""


class FaultToleranceError(ReproError):
    """Recovery could not make progress (restart budget exhausted, or a
    restart policy was asked to resume from state that does not exist)."""


class ServiceError(ReproError):
    """The multi-tenant service plane rejected a job or reached an
    inconsistent scheduling state (e.g. a job whose minimum GPU demand
    can never be satisfied by the fleet)."""


class ServiceConfigError(ServiceError, ConfigError):
    """A job or scheduler value the service plane refuses: a
    :class:`ServiceError` to a direct caller, and, being a
    :class:`ConfigError` too, one line and exit 2 from the CLI."""


class LeaseError(ServiceError):
    """A device-lease operation violated exclusive ownership: acquiring
    more slots than are free, releasing a lease twice, or using a lease
    after release."""
