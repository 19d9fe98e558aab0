"""Deterministic fault schedules.

A fault schedule is *data*, not chance: an ordered list of
:class:`FaultEvent` with explicit trigger times on the **global** virtual
clock (virtual milliseconds accumulated across restart attempts, so one
schedule spans a whole crash-recover-resume history).  Schedules come
from two places:

* hand-written JSON (tests, the ``examples/faults_demo.json`` demo, and
  replay manifests — the schedule is part of a faulted run's identity);
* :meth:`FaultSchedule.from_mtbf` — seeded sampling from an exponential
  inter-arrival model, for availability sweeps.  The draw goes through
  :class:`~repro.seeding.SeedSequenceTree`, so a sweep is as reproducible
  as the training it perturbs.

Fault kinds and their targets:

==============  =====================  =======================================
kind            target                 effect
==============  =====================  =======================================
``gpu_crash``   GPU (stage) index      fail-stop: the run halts, state on the
                                       device is lost, recovery restarts from
                                       the latest consistent checkpoint
``host_crash``  host index             fail-stop of every GPU on the host
``nic_degrade`` link index (stage i    the stage i↔i+1 links run at
                → i+1)                 ``bandwidth / magnitude`` for
                                       ``duration_ms`` (degraded mode — the
                                       run continues, slower)
``copy_stall``  GPU (stage) index      the stage's PCIe copy engine is busy
                                       for an extra ``duration_ms`` (models a
                                       host paging storm / ECC scrub)
``task_error``  GPU (stage) index      the next ``magnitude`` tasks dispatched
                                       on the stage fail transiently and are
                                       retried with exponential backoff
==============  =====================  =======================================

**Fleet-scoped kinds** (``FLEET_KINDS``) target the *service plane*, not
one engine attempt: their ``target`` is a physical fleet slot (or node)
index owned by a :class:`~repro.service.manager.ClusterManager`, and the
engine-level :class:`~repro.ft.injector.FaultInjector` never binds them
(an engine has stages, not fleet slots).

================  ===================  =====================================
kind              target               effect
================  ===================  =====================================
``slot_preempt``  fleet slot index     the slot is revoked (spot preemption)
                                       for ``duration_ms``; the owning lease
                                       is invalidated mid-segment
``node_down``     node index           every slot of the contiguous node
                                       group ``[target * slots_per_node,
                                       (target + 1) * slots_per_node)`` is
                                       revoked for ``duration_ms``
================  ===================  =====================================

:meth:`FaultSchedule.fleet_from_mtbf` draws seeded preemption *storms*
of these kinds over a fleet — the generator behind
``naspipe chaos-fleet``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.payload import build, indented
from repro.seeding import SeedSequenceTree

__all__ = [
    "FAULT_KINDS",
    "FATAL_KINDS",
    "FLEET_KINDS",
    "ALL_KINDS",
    "FaultEvent",
    "FaultSchedule",
]

GPU_CRASH = "gpu_crash"
HOST_CRASH = "host_crash"
NIC_DEGRADE = "nic_degrade"
COPY_STALL = "copy_stall"
TASK_ERROR = "task_error"
SLOT_PREEMPT = "slot_preempt"
NODE_DOWN = "node_down"

#: every fault kind the engine-level injector understands
FAULT_KINDS = (GPU_CRASH, HOST_CRASH, NIC_DEGRADE, COPY_STALL, TASK_ERROR)

#: fleet-scoped kinds: handled by the service/serving planes (lease
#: revocation), never bound into a single engine attempt
FLEET_KINDS = (SLOT_PREEMPT, NODE_DOWN)

#: every valid fault kind, engine-scoped and fleet-scoped
ALL_KINDS = FAULT_KINDS + FLEET_KINDS

#: fail-stop kinds: the run halts and recovery takes over
FATAL_KINDS = frozenset({GPU_CRASH, HOST_CRASH})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure.

    ``time_ms`` is on the global virtual clock (cumulative across restart
    attempts); ``target`` is a GPU index, host index or link index
    depending on ``kind`` (see the module table); ``duration_ms`` and
    ``magnitude`` are kind-specific knobs.
    """

    kind: str
    time_ms: float
    target: int = 0
    duration_ms: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(ALL_KINDS)}"
            )
        if self.time_ms < 0:
            raise ConfigError(f"fault time must be >= 0, got {self.time_ms}")
        if self.target < 0:
            raise ConfigError(f"fault target must be >= 0, got {self.target}")
        if self.duration_ms < 0:
            raise ConfigError("fault duration must be >= 0")
        if self.kind == NIC_DEGRADE and self.magnitude <= 1.0:
            raise ConfigError(
                "nic_degrade magnitude is a slowdown factor and must be > 1"
            )
        if self.kind == TASK_ERROR and int(self.magnitude) < 1:
            raise ConfigError(
                "task_error magnitude is a failure count and must be >= 1"
            )
        if self.kind in FLEET_KINDS and self.duration_ms <= 0:
            raise ConfigError(
                f"{self.kind} needs duration_ms > 0: a revoked slot must "
                "come back (permanent fleet shrinkage is a config change, "
                "not a fault)"
            )

    @property
    def fatal(self) -> bool:
        return self.kind in FATAL_KINDS

    def to_payload(self) -> Dict[str, object]:
        return asdict(self)


class FaultSchedule:
    """An ordered, validated collection of :class:`FaultEvent`."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: List[FaultEvent] = sorted(
            events, key=lambda e: (e.time_ms, e.kind, e.target)
        )
        self._check_nic_overlaps()

    def _check_nic_overlaps(self) -> None:
        """Reject overlapping ``nic_degrade`` windows on the same link.

        The injector divides the link bandwidth at fire time and
        schedules a restore of the value it *saved*; a second window
        opening inside the first would save the already-degraded
        bandwidth and restore the link to a permanently slow state.
        """
        open_until: Dict[int, Tuple[float, int]] = {}
        for index, event in enumerate(self.events):
            if event.kind != NIC_DEGRADE:
                continue
            previous = open_until.get(event.target)
            if previous is not None and event.time_ms < previous[0]:
                raise ConfigError(
                    f"fault event {index}: nic_degrade on link "
                    f"{event.target} at t={event.time_ms} overlaps the "
                    f"window opened by event {previous[1]} (open until "
                    f"t={previous[0]})"
                )
            open_until[event.target] = (
                event.time_ms + event.duration_ms,
                index,
            )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def fatal_events(self) -> List[FaultEvent]:
        return [event for event in self.events if event.fatal]

    def kind_counts(self) -> Dict[str, int]:
        """Events per fault kind, keys ascending (the ``fault_kinds`` /
        ``storm_kinds`` cell of a sweep row)."""
        kinds = [event.kind for event in self.events]
        return {kind: kinds.count(kind) for kind in sorted(set(kinds))}

    # ------------------------------------------------------------------
    # serialisation — schedules travel inside replay manifests
    # ------------------------------------------------------------------
    def to_payload(self) -> List[Dict[str, object]]:
        return [event.to_payload() for event in self.events]

    @classmethod
    def from_payload(
        cls, payload: Sequence[Dict[str, object]]
    ) -> "FaultSchedule":
        return cls(
            build(FaultEvent, entry, f"fault event {index}")
            for index, entry in enumerate(payload)
        )

    def to_json(self) -> str:
        return indented(self.to_payload())

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_payload(json.loads(text))

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultSchedule":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------
    # seeded sampling — the availability-sweep generator
    # ------------------------------------------------------------------
    @classmethod
    def from_mtbf(
        cls,
        seeds: SeedSequenceTree,
        mtbf_ms: float,
        horizon_ms: float,
        num_gpus: int,
        kinds: Optional[Sequence[str]] = None,
        nic_slowdown: float = 4.0,
        stall_ms: float = 20.0,
        stream_name: str = "faults/mtbf",
    ) -> "FaultSchedule":
        """Draw faults with exponential inter-arrival times (mean
        ``mtbf_ms``) over ``[0, horizon_ms)``.

        Kind and target are uniform draws from ``kinds`` (default: all)
        and the cluster's GPUs.  The draw comes from a named seed stream,
        so a sweep row is a pure function of ``(root seed, mtbf)``.
        """
        if mtbf_ms <= 0:
            raise ConfigError(f"mtbf must be positive, got {mtbf_ms}")
        chosen_kinds = tuple(kinds) if kinds else FAULT_KINDS
        for kind in chosen_kinds:
            if kind not in FAULT_KINDS:
                raise ConfigError(f"unknown fault kind {kind!r}")
        rng = seeds.fresh_generator(f"{stream_name}/{mtbf_ms}")
        events: List[FaultEvent] = []
        nic_open_until: Dict[int, float] = {}
        clock = 0.0
        while True:
            clock += float(rng.exponential(mtbf_ms))
            if clock >= horizon_ms:
                break
            kind = chosen_kinds[int(rng.integers(len(chosen_kinds)))]
            if kind == HOST_CRASH:
                hosts = max(1, (num_gpus + 3) // 4)
                target = int(rng.integers(hosts))
            elif kind == NIC_DEGRADE:
                target = int(rng.integers(max(1, num_gpus - 1)))
            else:
                target = int(rng.integers(num_gpus))
            if kind == NIC_DEGRADE:
                if clock < nic_open_until.get(target, 0.0):
                    # A degrade window is still open on this link; a
                    # second one would be rejected by schedule validation
                    # (the injector could not restore bandwidth sanely).
                    # Drop the draw deterministically.
                    continue
                nic_open_until[target] = clock + stall_ms * 10
                event = FaultEvent(
                    kind, clock, target,
                    duration_ms=stall_ms * 10,
                    magnitude=nic_slowdown,
                )
            elif kind == COPY_STALL:
                event = FaultEvent(kind, clock, target, duration_ms=stall_ms)
            elif kind == TASK_ERROR:
                event = FaultEvent(kind, clock, target, magnitude=1.0)
            else:
                event = FaultEvent(kind, clock, target)
            events.append(event)
        return cls(events)

    @classmethod
    def fleet_from_mtbf(
        cls,
        seeds: SeedSequenceTree,
        mtbf_ms: float,
        horizon_ms: float,
        fleet_slots: int,
        slots_per_node: int = 4,
        node_down_weight: float = 0.2,
        preempt_outage_ms: float = 120.0,
        node_outage_ms: float = 300.0,
        stream_name: str = "faults/fleet",
    ) -> "FaultSchedule":
        """Draw a fleet-scoped preemption *storm* over ``[0, horizon_ms)``.

        Inter-arrival times are exponential with mean ``mtbf_ms`` —
        fleet-wide, not per-slot, so halving the MTBF doubles the storm
        intensity regardless of fleet size.  Each arrival is a
        ``slot_preempt`` on a uniform slot, or (with probability
        ``node_down_weight``) a ``node_down`` taking the contiguous
        group of ``slots_per_node`` slots of a uniform node.  The draw
        comes from a named seed stream, so a storm is a pure function of
        ``(root seed, mtbf, stream name)``.
        """
        if mtbf_ms <= 0:
            raise ConfigError(f"mtbf must be positive, got {mtbf_ms}")
        if fleet_slots < 1:
            raise ConfigError(
                f"fleet_slots must be >= 1, got {fleet_slots}"
            )
        if slots_per_node < 1:
            raise ConfigError(
                f"slots_per_node must be >= 1, got {slots_per_node}"
            )
        if not 0.0 <= node_down_weight <= 1.0:
            raise ConfigError(
                f"node_down_weight must be in [0, 1], got {node_down_weight}"
            )
        rng = seeds.fresh_generator(f"{stream_name}/{mtbf_ms}")
        nodes = max(1, (fleet_slots + slots_per_node - 1) // slots_per_node)
        events: List[FaultEvent] = []
        clock = 0.0
        while True:
            clock += float(rng.exponential(mtbf_ms))
            if clock >= horizon_ms:
                break
            if float(rng.random()) < node_down_weight:
                events.append(
                    FaultEvent(
                        NODE_DOWN,
                        clock,
                        int(rng.integers(nodes)),
                        duration_ms=node_outage_ms,
                    )
                )
            else:
                events.append(
                    FaultEvent(
                        SLOT_PREEMPT,
                        clock,
                        int(rng.integers(fleet_slots)),
                        duration_ms=preempt_outage_ms,
                    )
                )
        return cls(events)
