"""Per-layer causal dependency tracking (Definition 2, exact form).

For every candidate layer the tracker keeps one sorted list: the
registered subnets that use it and have not released it yet.  A subnet
*releases* a layer when its WRITE — the backward pass plus optimizer step
of the stage owning that layer — has committed, and it leaves the layer's
list right then.  Subnet ``y`` may access layer ``l`` once every earlier
user of ``l`` has released it, i.e. once the list's head is not below
``y``.  Subnets register in sequence order (:meth:`DependencyTracker.
register` refuses anything else), so a list only grows at its tail and a
queued subnet never gains a blocker after it was indexed.

The tracker also implements the paper's *elimination scheme* (§3.2
complexity analysis): a fully finished subnet releases whatever it still
held and leaves the subnet table at once, so state stays flat over
arbitrarily long streams.

Why per-layer rather than the paper's per-subnet stage-local check?  The
stage-local check (Algorithm 2's pseudocode, measured by ``naspipe
scheduler-cost``) compares a candidate's stage-K layers against *whole*
earlier subnets and considers an earlier subnet cleared once its backward
ran at stage K.  When two subnets' balanced partitions place a shared
layer in different stages, that proxy can diverge from the true WRITE
time in either direction.  The tracker is therefore the runtime's ground
truth, and a task only executes once the tracker agrees — the "checks
whether the subnet context to be executed is ready ... for safety" step
of paper §3.1.

Readiness index
---------------

On top of the unreleased-user lists the tracker maintains an
*incremental readiness index*: per scope (one scope per pipeline stage,
keyed by anything hashable) it tracks, for every queued (subnet,
stage-slice) pair, the exact set of unreleased ``(earlier user, layer)``
edges still blocking it.  Releases update only the affected edges and a
subnet whose edge set drains is promoted into a sorted ready list, so
``first_ready`` is an O(1)-amortized pop rather than a queue rescan.  The
index is decision-identical to scanning — ready membership is by
construction ``is_clear(subnet, slice)`` — which the differential tests
in ``tests/test_scheduler_equivalence.py`` enforce.

:class:`ReadinessOverlay` gives the context predictor a copy-on-write
view of one scope: "pretend these subnets finished" is answered by
decrementing per-entry blocked counts lazily instead of re-scanning the
lists ``depth`` times per prediction.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.errors import SchedulingError
from repro.nn.parameter_store import LayerId
from repro.supernet.subnet import Subnet

__all__ = ["DependencyTracker", "ReadinessOverlay"]

#: one blocking edge: an earlier user that has not released a layer yet
_Edge = Tuple[int, LayerId]
#: one indexed entry: (scope key, waiting subnet id)
_Entry = Tuple[Hashable, int]


class _ScopeIndex:
    """Readiness bookkeeping for one scope (one stage's forward queue)."""

    __slots__ = ("layers", "blocked", "ready")

    def __init__(self) -> None:
        #: tracked stage-slice per indexed subnet
        self.layers: Dict[int, List[LayerId]] = {}
        #: unreleased blocking edges per indexed subnet
        self.blocked: Dict[int, Set[_Edge]] = {}
        #: sorted ids whose edge set is empty (CSP-clear right now)
        self.ready: List[int] = []


def _sorted_remove(values: List[int], value: int) -> bool:
    """Remove ``value`` from a sorted list; True when it was present."""
    pos = bisect_left(values, value)
    if pos < len(values) and values[pos] == value:
        values.pop(pos)
        return True
    return False


class DependencyTracker:
    """Tracks the unreleased layer users of the unfinished subnets."""

    def __init__(self) -> None:
        #: registered subnets that have not finished
        self._subnets: Dict[int, Subnet] = {}
        #: the highest id taken so far; ``register`` refuses the rest
        self._last_registered: int = -1
        #: per-layer users that have *not* released it yet, in sequence
        #: order; a user leaves at release time
        self._unreleased: Dict[LayerId, List[int]] = {}
        # --- readiness index state ------------------------------------
        self._scopes: Dict[Hashable, _ScopeIndex] = {}
        #: user -> layer -> indexed entries blocked on that (user, layer)
        #: edge; no empty inner container is kept, so a user's keys are
        #: exactly the layers somebody still awaits from it
        self._waiters: Dict[int, Dict[LayerId, Set[_Entry]]] = {}
        #: scopes whose ready list changed since their owner last polled
        #: them (the owner discards; the CSP policy wakes exactly these)
        self.dirty_scopes: Set[Hashable] = set()

    # ------------------------------------------------------------------
    # registration / lifecycle
    # ------------------------------------------------------------------
    def register(self, subnet: Subnet) -> None:
        """Admit a subnet into dependency bookkeeping.

        Subnets register in sequence order: an id not above every id
        registered before is refused, so each layer's list stays sorted
        by appending.
        """
        subnet_id = subnet.subnet_id
        if subnet_id <= self._last_registered:
            raise SchedulingError(
                f"subnet {subnet_id} registered after subnet "
                f"{self._last_registered}: subnets register in sequence order"
            )
        self._last_registered = subnet_id
        self._subnets[subnet_id] = subnet
        for layer in subnet.layer_ids():
            self._unreleased.setdefault(layer, []).append(subnet_id)

    def reserve_ids_below(self, base: int) -> None:
        """The ids below ``base`` are taken (a recovered run's resume cut).

        A restarted stream carries its original sequence IDs from the
        checkpoint cut onward; the ids below it belong to the previous
        incarnation, so ``register`` refuses them.
        """
        self._last_registered = max(self._last_registered, base - 1)

    def release_layers(self, subnet_id: int, layers: Iterable[LayerId]) -> None:
        """Record that ``subnet_id``'s WRITE on ``layers`` has committed."""
        if subnet_id not in self._subnets:
            raise SchedulingError(
                f"release for unregistered or finished subnet {subnet_id}"
            )
        self._commit_release(subnet_id, layers)

    def mark_finished(self, subnet_id: int) -> None:
        """A subnet is fully done (all writes committed): it releases
        what it still holds and leaves the tracker."""
        subnet = self._subnets.pop(subnet_id, None)
        if subnet is None:
            raise SchedulingError(
                f"finish for unregistered or finished subnet {subnet_id}"
            )
        self._commit_release(subnet_id, subnet.layer_ids())

    def _commit_release(
        self, subnet_id: int, layers: Iterable[LayerId]
    ) -> None:
        """Apply newly released layers and drain the affected edges."""
        awaited = self._waiters.get(subnet_id)
        for layer in layers:
            unreleased = self._unreleased.get(layer)
            if unreleased is None or not _sorted_remove(unreleased, subnet_id):
                continue  # released already, or not a user of the layer
            if not unreleased:
                del self._unreleased[layer]
            entries = awaited.pop(layer, None) if awaited else None
            if entries is None:
                continue
            edge = (subnet_id, layer)
            for scope_key, waiting in entries:
                scope = self._scopes.get(scope_key)
                if scope is None:
                    continue
                edges = scope.blocked.get(waiting)
                if edges is None:
                    continue
                edges.discard(edge)
                if not edges:
                    insort(scope.ready, waiting)
                    self.dirty_scopes.add(scope_key)
        if awaited is not None and not awaited:
            del self._waiters[subnet_id]

    # ------------------------------------------------------------------
    # readiness index
    # ------------------------------------------------------------------
    def _await(self, user: int, layer: LayerId, entry: _Entry) -> None:
        by_layer = self._waiters.get(user)
        if by_layer is None:
            by_layer = self._waiters[user] = {}
        entries = by_layer.get(layer)
        if entries is None:
            by_layer[layer] = {entry}
        else:
            entries.add(entry)

    def index_add(
        self, scope_key: Hashable, subnet_id: int, layers: Iterable[LayerId]
    ) -> None:
        """Start tracking readiness of ``subnet_id``'s stage slice.

        Cost is O(slice layers × currently-unreleased earlier users) —
        the one-time scan a queue rescan would otherwise repeat on every
        scheduler call.  Re-adding an id replaces its tracked slice.  The
        id must have registered: an earlier subnet registering after it
        would block it without an edge.
        """
        if subnet_id > self._last_registered:
            raise SchedulingError(f"subnet {subnet_id} indexed before it registered")
        scope = self._scopes.setdefault(scope_key, _ScopeIndex())
        if subnet_id in scope.layers:
            self.index_discard(scope_key, subnet_id)
        layer_list = list(layers)
        scope.layers[subnet_id] = layer_list
        edges: Set[_Edge] = set()
        entry = (scope_key, subnet_id)
        for layer in layer_list:
            for user in self._unreleased.get(layer, ()):
                if user >= subnet_id:
                    break  # sorted; no earlier unreleased users left
                edges.add((user, layer))
                self._await(user, layer, entry)
        scope.blocked[subnet_id] = edges
        if not edges:
            insort(scope.ready, subnet_id)
            self.dirty_scopes.add(scope_key)

    def index_discard(self, scope_key: Hashable, subnet_id: int) -> None:
        """Stop tracking ``subnet_id`` under ``scope_key`` (queue pop)."""
        scope = self._scopes.get(scope_key)
        if scope is None:
            return
        layer_list = scope.layers.pop(subnet_id, None)
        if layer_list is None:
            return
        entry = (scope_key, subnet_id)
        for user, layer in scope.blocked.pop(subnet_id, ()):
            by_layer = self._waiters.get(user)
            entries = by_layer.get(layer) if by_layer is not None else None
            if entries is not None:
                entries.discard(entry)
                if not entries:
                    del by_layer[layer]
                    if not by_layer:
                        del self._waiters[user]
        if _sorted_remove(scope.ready, subnet_id):
            self.dirty_scopes.add(scope_key)

    def has_scope(self, scope_key: Hashable) -> bool:
        return scope_key in self._scopes

    def indexed_ids(self, scope_key: Hashable) -> List[int]:
        scope = self._scopes.get(scope_key)
        return sorted(scope.layers) if scope is not None else []

    def ready_ids(self, scope_key: Hashable) -> List[int]:
        """Sorted CSP-clear subnet ids tracked under ``scope_key``."""
        scope = self._scopes.get(scope_key)
        return list(scope.ready) if scope is not None else []

    def ready_count(self, scope_key: Hashable) -> int:
        """Size of the scope's ready list, without copying it: the CSP
        policy's per-decision counter sample needs only that."""
        scope = self._scopes.get(scope_key)
        return len(scope.ready) if scope is not None else 0

    def first_ready(self, scope_key: Hashable) -> Optional[int]:
        """Lowest ready id — the scheduler's O(1) pop."""
        scope = self._scopes.get(scope_key)
        if scope is None or not scope.ready:
            return None
        return scope.ready[0]

    def overlay(self, scope_key: Hashable) -> "ReadinessOverlay":
        """A copy-on-write hypothetical view of one scope's readiness."""
        return ReadinessOverlay(self, scope_key)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def blocking_user(
        self, subnet_id: int, layers: Iterable[LayerId]
    ) -> Optional[Tuple[int, LayerId]]:
        """First (earlier subnet, layer) pair still blocking ``subnet_id``:
        the first given layer whose lowest unreleased user is below it.

        Returns None when every earlier user of every given layer has
        released it — i.e. the access is CSP-clear.
        """
        unreleased = self._unreleased
        for layer in layers:
            users = unreleased.get(layer)
            if users and users[0] < subnet_id:
                return users[0], layer
        return None

    def is_clear(self, subnet_id: int, layers: Iterable[LayerId]) -> bool:
        return self.blocking_user(subnet_id, layers) is None

    def unreleased_users(self, layer: LayerId) -> List[int]:
        """The registered users of ``layer`` that have not released it,
        in sequence order."""
        return list(self._unreleased.get(layer, ()))


class ReadinessOverlay:
    """Hypothetical readiness: base index + "assume these finished".

    The predictor's lookahead (Algorithm 3) asks "if subnets X finished,
    which queued forward clears next?" up to ``depth`` times.  Instead of
    re-scanning user lists, the overlay copies the scope's sorted ready
    list and lazily materialises per-entry blocked *counts* only for
    entries an assumed subnet actually blocks — copy-on-write over the
    live index, which stays untouched.
    """

    def __init__(self, tracker: DependencyTracker, scope_key: Hashable) -> None:
        scope = tracker._scopes.get(scope_key)
        if scope is None:
            raise SchedulingError(f"no readiness scope {scope_key!r}")
        self._tracker = tracker
        self._scope = scope
        self._scope_key = scope_key
        self._ready: List[int] = list(scope.ready)
        self._counts: Dict[int, int] = {}
        self._assumed: Set[int] = set()

    def assume_released(self, subnet_id: int) -> None:
        """Treat every layer of ``subnet_id`` as released (hypothetically)."""
        if subnet_id in self._assumed:
            return
        self._assumed.add(subnet_id)
        # only the layers some indexed entry still awaits from it: a
        # finished, unregistered or unawaited subnet blocks nothing
        awaited = self._tracker._waiters.get(subnet_id)
        if awaited is None:
            return
        decrements: Dict[int, int] = {}
        for entries in awaited.values():
            for scope_key, waiting in entries:
                if scope_key == self._scope_key:
                    decrements[waiting] = decrements.get(waiting, 0) + 1
        for waiting, dec in decrements.items():
            count = self._counts.get(waiting)
            if count is None:
                count = len(self._scope.blocked[waiting])
            count -= dec
            self._counts[waiting] = count
            if count == 0:
                insort(self._ready, waiting)

    def is_clear(self, subnet_id: int) -> bool:
        count = self._counts.get(subnet_id)
        if count is not None:
            return count == 0
        edges = self._scope.blocked.get(subnet_id)
        if edges is None:
            raise SchedulingError(
                f"subnet {subnet_id} not indexed under {self._scope_key!r}"
            )
        return not edges

    def first_clear(self, skip: Optional[Set[int]] = None) -> Optional[int]:
        """Lowest hypothetically-clear indexed id not in ``skip``."""
        for subnet_id in self._ready:
            if skip and subnet_id in skip:
                continue
            return subnet_id
        return None
