"""The shared-fleet device owner: leases GPU slot sets to engines.

Before the service plane, every :class:`~repro.engines.pipeline.
PipelineEngine` constructed its own ``Cluster`` — device ownership was a
side effect of running, and two engines could not share a machine.  The
:class:`ClusterManager` extracts that ownership: it holds the fleet's
physical GPU slots (described once by a fleet-wide
:class:`~repro.sim.cluster.ClusterSpec`) and grants disjoint subsets to
jobs as :class:`~repro.service.lease.DeviceLease` handles.  Engines are
then constructed *from a lease* and run on exactly the slots they were
granted.

Invariants the manager enforces (violations raise :class:`LeaseError`):

* a slot belongs to at most one live lease (never double-leased);
* a lease is released exactly once, by the lease that holds the slots;
* allocation is deterministic — the lowest-numbered free slots win, so
  identical request sequences produce identical grants bit-for-bit.

**Revocation** (the fleet-unreliability path, see
``docs/FAULT_TOLERANCE.md`` §Fleet-scale faults): a fleet fault —
``slot_preempt`` or ``node_down`` — calls :meth:`revoke` on a physical
slot.  If the slot is leased, the owning lease is invalidated
*mid-segment*: it leaves the live set immediately, the revoking fault is
recorded as the lease's provenance, the struck slot enters the **down
pool** (out of service until :meth:`mark_up`), and the lease's surviving
slots stay reserved until the holder releases them.  A release of a
revoked lease is **idempotent** — the holder learns about the revocation
asynchronously (at its next consistent cut), so "I released what was
already taken from me" is a normal hand-off, not an ownership violation.
Every other double/foreign release is still a loud :class:`LeaseError`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError, LeaseError
from repro.ft.faults import FLEET_KINDS, NODE_DOWN
from repro.service.lease import DeviceLease
from repro.sim.cluster import ClusterSpec

__all__ = ["ClusterManager"]


class ClusterManager:
    """Owns the fleet's GPU slots; grants and reclaims leases."""

    def __init__(self, spec: ClusterSpec) -> None:
        #: fleet-wide template: ``num_gpus`` is the fleet size, and
        #: ``gpu_speed_factors`` (when set) describes per-slot hardware
        self.spec = spec
        self._free: List[int] = list(range(spec.num_gpus))  # kept sorted
        self._live: Dict[int, DeviceLease] = {}
        self._owner: Dict[int, int] = {}  # slot -> lease_id
        self._down: Dict[int, str] = {}  # slot -> revoking fault label
        self._revoked: Dict[int, str] = {}  # lease_id -> revoking fault
        #: slots a revoked lease still reserves until its release
        self._residual: Dict[int, List[int]] = {}
        self._next_lease_id = 0
        self.total_leases_granted = 0
        self.total_revocations = 0
        #: virtual-clock source for the usage ledger.  The owning plane's
        #: ``run()`` installs its simulator's ``clock``; the default keeps
        #: construction-time acquires (the serving engine leases in its
        #: ``__init__``, before any event fires) at t=0.
        self.clock = lambda: 0.0
        #: optional ``(kind, job, lease_id, slot, now, cause, manager)``
        #: callback fired when a per-slot holding opens ("acquire") or
        #: closes ("close") — the telemetry plane's metering hook
        self.usage_observer = None
        self._holdings: Dict[Tuple[int, int], float] = {}
        self._lease_jobs: Dict[int, str] = {}
        #: closed holdings: (job, lease_id, slot, start_ms, end_ms, cause).
        #: The manager's own usage record — :meth:`leased_slot_ms_total`
        #: sums it independently of any observer, which is what metering
        #: reconciliation checks against.
        self.usage_ledger: List[Tuple[str, int, int, float, float, str]] = []

    # ------------------------------------------------------------------
    @property
    def total_gpus(self) -> int:
        return self.spec.num_gpus

    @property
    def available_gpus(self) -> int:
        return len(self._free)

    @property
    def leased_gpus(self) -> int:
        """Slots held by live leases (revoked residuals excluded)."""
        return sum(len(lease.slots) for lease in self._live.values())

    def free_slots(self) -> Tuple[int, ...]:
        return tuple(self._free)

    def down_slots(self) -> Tuple[int, ...]:
        """Out-of-service slots, ascending (revoked, not yet marked up)."""
        return tuple(sorted(self._down))

    def is_down(self, slot: int) -> bool:
        return slot in self._down

    def residual_slots(self) -> Tuple[int, ...]:
        """Slots still reserved by revoked-but-unreleased leases."""
        return tuple(
            sorted(s for slots in self._residual.values() for s in slots)
        )

    def revocation_of(self, lease: DeviceLease) -> Optional[str]:
        """The fault label that revoked ``lease``, or None if never
        revoked."""
        return self._revoked.get(lease.lease_id)

    def is_active(self, lease: DeviceLease) -> bool:
        return self._live.get(lease.lease_id) is lease

    # ------------------------------------------------------------------
    # usage ledger (per-slot holdings on the virtual clock)
    # ------------------------------------------------------------------
    def _notify_usage(
        self, kind: str, job: str, lease_id: int, slot: int, now: float,
        cause: str,
    ) -> None:
        if self.usage_observer is not None:
            self.usage_observer(kind, job, lease_id, slot, now, cause, self)

    def _open_holding(self, job: str, lease_id: int, slot: int) -> None:
        now = self.clock()
        self._holdings[(lease_id, slot)] = now
        self._notify_usage("acquire", job, lease_id, slot, now, "")

    def _close_holding(self, lease_id: int, slot: int, cause: str) -> None:
        start = self._holdings.pop((lease_id, slot), None)
        if start is None:
            return
        now = self.clock()
        job = self._lease_jobs.get(lease_id, "?")
        self.usage_ledger.append((job, lease_id, slot, start, now, cause))
        self._notify_usage("close", job, lease_id, slot, now, cause)

    def leased_slot_ms_total(self) -> float:
        """Total GPU-slot-milliseconds across every *closed* holding —
        the manager-side quantity per-tenant metering must reconcile to
        (open holdings are not yet usage on either side)."""
        return sum(end - start for _, _, _, start, end, _ in self.usage_ledger)

    # ------------------------------------------------------------------
    def _lease_spec(self, slots: Tuple[int, ...]) -> ClusterSpec:
        """The lease-local cluster parameters: fleet template resized to
        the grant, with per-slot speed factors re-indexed to lease
        positions (stage ``i`` inherits slot ``slots[i]``'s speed)."""
        speeds = None
        if self.spec.gpu_speed_factors is not None:
            speeds = tuple(self.spec.gpu_speed_factors[s] for s in slots)
        return replace(
            self.spec, num_gpus=len(slots), gpu_speed_factors=speeds
        )

    def acquire(self, job: str, count: int) -> DeviceLease:
        """Grant ``count`` slots to ``job`` (lowest free slots first).

        Deterministic and exclusive: the same free-pool state and request
        always yields the same slot set, and a granted slot leaves the
        pool until its lease is released.
        """
        if count < 1:
            raise LeaseError(f"{job}: a lease needs at least 1 GPU, got {count}")
        if count > len(self._free):
            down = f", {len(self._down)} down" if self._down else ""
            raise LeaseError(
                f"{job}: requested {count} GPUs with only "
                f"{len(self._free)} free of {self.total_gpus}{down}"
            )
        slots = tuple(self._free[:count])
        del self._free[:count]
        lease = DeviceLease(
            lease_id=self._next_lease_id,
            job=job,
            slots=slots,
            spec=self._lease_spec(slots),
            manager=self,
        )
        self._next_lease_id += 1
        self.total_leases_granted += 1
        self._live[lease.lease_id] = lease
        for slot in slots:
            if slot in self._owner:  # pragma: no cover - defence in depth
                raise LeaseError(
                    f"slot {slot} already owned by lease "
                    f"{self._owner[slot]} while granting to {job}"
                )
            self._owner[slot] = lease.lease_id
        self._lease_jobs[lease.lease_id] = job
        for slot in slots:
            self._open_holding(job, lease.lease_id, slot)
        return lease

    def release(self, lease: DeviceLease) -> None:
        """Reclaim a lease's slots.

        Releasing a **revoked** lease is idempotent: the first call
        returns the lease's surviving (non-struck) slots to the free
        pool, later calls are no-ops — the holder learns of the
        revocation asynchronously, so this hand-off is expected.  Every
        other double release or foreign lease is an ownership violation
        and raises :class:`LeaseError` naming the provenance.
        """
        fault = self._revoked.get(lease.lease_id)
        if fault is not None:
            residual = self._residual.pop(lease.lease_id, [])
            for slot in residual:
                del self._owner[slot]
                self._close_holding(lease.lease_id, slot, "release")
            self._free.extend(residual)
            self._free.sort()
            return
        live = self._live.get(lease.lease_id)
        if live is None or live is not lease:
            raise LeaseError(
                f"lease {lease.lease_id} ({lease.job}) is not live and was "
                "never revoked; double release or foreign lease"
            )
        del self._live[lease.lease_id]
        for slot in lease.slots:
            if self._owner.get(slot) != lease.lease_id:
                raise LeaseError(  # pragma: no cover - defence in depth
                    f"slot {slot} not owned by lease {lease.lease_id} "
                    "at release"
                )
            del self._owner[slot]
            self._close_holding(lease.lease_id, slot, "release")
        self._free.extend(lease.slots)
        self._free.sort()

    # ------------------------------------------------------------------
    # revocation — the fleet-fault path
    # ------------------------------------------------------------------
    def revoke(self, slot: int, fault: str = "fault") -> Optional[DeviceLease]:
        """Take physical ``slot`` out of service (fleet fault at ``slot``).

        Deterministic state transition, idempotent per slot while down:

        * a **free** slot simply moves to the down pool;
        * a slot held by a **live** lease invalidates that lease: it
          leaves the live set, ``fault`` becomes its recorded provenance
          (see :meth:`revocation_of`), the struck slot goes down, and
          the lease's other slots stay reserved (``residual``) until the
          holder's idempotent release — the grace window in which an
          elastic job drains to its next consistent cut;
        * a residual slot of an **already-revoked** lease goes down too
          (storms can strike one lease repeatedly);
        * an already-down slot is a no-op.

        Returns the lease revoked *by this call*, else None.
        """
        if not 0 <= slot < self.total_gpus:
            raise LeaseError(
                f"cannot revoke slot {slot}: fleet has slots "
                f"0..{self.total_gpus - 1}"
            )
        if slot in self._down:
            return None
        if slot in self._free:
            self._free.remove(slot)
            self._down[slot] = fault
            self._notify_usage("down", "", -1, slot, self.clock(), fault)
            return None
        lease_id = self._owner.pop(slot)
        self._down[slot] = fault
        lease = self._live.pop(lease_id, None)
        if lease is None:
            # the owning lease was already revoked: strike the residual
            self._residual[lease_id].remove(slot)
            self._close_holding(lease_id, slot, "revoked")
            self._notify_usage("down", "", -1, slot, self.clock(), fault)
            return None
        self._revoked[lease_id] = fault
        self._residual[lease_id] = [s for s in lease.slots if s != slot]
        self.total_revocations += 1
        self._close_holding(lease_id, slot, "revoked")
        self._notify_usage("down", "", -1, slot, self.clock(), fault)
        return lease

    def mark_up(self, slot: int) -> None:
        """Return a down slot to service (outage over).  Idempotent: a
        slot that is not down (already recovered) is a no-op."""
        if slot not in self._down:
            return
        del self._down[slot]
        self._free.append(slot)
        self._free.sort()
        self._notify_usage("up", "", -1, slot, self.clock(), "")

    def arm_fleet_faults(
        self, sim, schedule, slots_per_node, slots, on_revoked, on_slot_up,
        on_struck=lambda event: None,
    ) -> None:
        """The one strike path the planes share: schedule every event of
        a fleet-scoped ``schedule`` on the calling plane's ``sim``.

        ``slot_preempt`` strikes one slot, ``node_down`` a contiguous
        ``slots_per_node`` group clipped to the fleet; ``slots`` (None:
        all) masks which physical slots this plane reacts to.  Per struck
        slot, in order: :meth:`revoke`; schedule :meth:`mark_up` then
        ``on_slot_up(slot)`` for ``duration_ms`` later; then
        ``on_revoked(lease, slot, event)`` if a lease was invalidated.
        ``on_struck(event)`` follows an event's last slot.  A non-fleet
        kind is a :class:`ConfigError`.
        """
        mask = range(self.total_gpus) if slots is None else frozenset(slots)

        def slot_up(slot: int) -> None:
            self.mark_up(slot)
            on_slot_up(slot)

        def strike(event) -> None:
            width = slots_per_node if event.kind == NODE_DOWN else 1
            fault = f"{event.kind}@{event.target} t={event.time_ms:g}ms"
            for slot in range(event.target * width, (event.target + 1) * width):
                if slot >= self.total_gpus or slot not in mask or self.is_down(slot):
                    continue
                lease = self.revoke(slot, fault=fault)
                sim.schedule(
                    sim.now + event.duration_ms,
                    lambda slot=slot: slot_up(slot),
                    label=f"slot-up {slot}",
                )
                if lease is not None:
                    on_revoked(lease, slot, event)
            on_struck(event)

        for event in schedule:
            if event.kind not in FLEET_KINDS:
                raise ConfigError(
                    f"inject_fleet_faults needs fleet kinds "
                    f"{sorted(FLEET_KINDS)}, got {event.kind!r}"
                )
            sim.schedule(
                event.time_ms,
                lambda event=event: strike(event),
                label=f"fleet {event.kind}@{event.target}",
            )
