"""Device leases: the handle a pipeline engine runs on in a shared fleet.

A :class:`DeviceLease` names the set of physical GPU slots a
:class:`~repro.service.manager.ClusterManager` granted to one job; stage
``i`` runs on physical slot ``slots[i]``.  The engine never sees the
fleet — it calls :meth:`DeviceLease.materialize` and receives a fresh
:class:`~repro.sim.cluster.Cluster`.  The manager keeps the slot sets of
live leases disjoint, so two engines never contend for each other's
devices, and each ``materialize()`` builds new devices, so no occupancy
state (``next_free``) passes between successive tenants of one slot.

The lease-local :class:`~repro.sim.cluster.ClusterSpec` carries the
fleet's per-slot speed factors re-indexed to lease positions, so a job
scheduled onto heterogeneous slots sees exactly the hardware it leased.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.errors import LeaseError
from repro.sim.cluster import Cluster, ClusterSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.manager import ClusterManager

__all__ = ["DeviceLease"]


@dataclass(frozen=True)
class DeviceLease:
    """Exclusive grant of a physical GPU slot set to one job."""

    lease_id: int
    job: str
    #: physical fleet slots, ascending; stage ``i`` maps to ``slots[i]``
    slots: Tuple[int, ...]
    #: lease-local cluster parameters (``num_gpus == len(slots)``)
    spec: ClusterSpec
    manager: "ClusterManager"

    @property
    def num_gpus(self) -> int:
        return len(self.slots)

    @property
    def active(self) -> bool:
        """Whether the manager still considers this lease live."""
        return self.manager.is_active(self)

    @property
    def revoked_by(self) -> "str | None":
        """The fault event that revoked this lease, or None."""
        return self.manager.revocation_of(self)

    def materialize(self) -> Cluster:
        """A fresh :class:`Cluster` for the lease-local spec.

        The engine adopts it as its device plane (see
        ``PipelineEngine._resolve_cluster``).  Raises :class:`LeaseError`
        when the lease has been released or revoked — running on
        returned hardware would break another tenant's exclusivity, and
        running on revoked hardware races the fault; the revocation
        error names the revoking fault event.
        """
        if not self.active:
            fault = self.revoked_by
            if fault is not None:
                raise LeaseError(
                    f"lease {self.lease_id} ({self.job}) was revoked by "
                    f"fault event [{fault}]; cannot materialize devices "
                    "from it"
                )
            raise LeaseError(
                f"lease {self.lease_id} ({self.job}) was already released; "
                "cannot materialize devices from it"
            )
        return Cluster(self.spec)

    def release(self) -> None:
        """Return the slots to the fleet.

        Releasing a *revoked* lease is idempotent (the holder hears
        about the fault asynchronously); any other double release means
        two owners believed they held the slots and is an error.
        """
        self.manager.release(self)
