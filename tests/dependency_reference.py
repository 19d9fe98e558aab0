"""The dependency tracker as it was when it kept three records of one fact.

Until then ``DependencyTracker`` held, besides the per-layer lists of
users that have not released a layer (``_unreleased``), every registered
user per layer (``_users``, pruned at elimination), a released-layer set
per subnet (``_released``), and per-layer watchers so that a subnet could
register out of sequence order (``_watchers`` / ``_add_edge``).  This
module is that ``repro.core.dependency``, copied verbatim below this
docstring, so ``tests/test_dependency_reference.py`` can drive it and the
live tracker through one drawn, in-order op stream and demand the same
answer to every query.  ``Subnet.depends_on`` and ``Subnet.layer_id_set``,
which that code called, have since left ``src/``: ``depends_on`` below is
the method's body (``shared_layers`` beside it is the other pairwise
relation the tests read), and ``_eliminate`` iterates
``frozenset(subnet.layer_ids())``, which is what ``layer_id_set`` returned.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.errors import SchedulingError
from repro.nn.parameter_store import LayerId
from repro.supernet.subnet import Subnet

__all__ = ["DependencyTracker", "ReadinessOverlay", "depends_on", "shared_layers"]


def shared_layers(subnet: Subnet, other: Subnet) -> List[LayerId]:
    """Layers both subnets activate (the causal-dependency set)."""
    return [
        (block, choice)
        for block, (choice, other_choice) in enumerate(zip(subnet.choices, other.choices))
        if choice == other_choice
    ]


def depends_on(later: Subnet, earlier: Subnet) -> bool:
    """True iff ``later`` causally depends on ``earlier``: they share a
    layer (the check itself is symmetric)."""
    return any(a == b for a, b in zip(later.choices, earlier.choices))

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
    """Tracks layer users, releases, completions, and the frontier."""

    def __init__(self) -> None:
        self._users: Dict[LayerId, List[int]] = {}
        self._subnets: Dict[int, Subnet] = {}
        self._released: Dict[int, Set[LayerId]] = {}
        self._finished: Set[int] = set()
        #: all subnet ids < frontier are finished and eliminated
        self.frontier: int = 0
        #: per-layer users that have *not* released it yet (sorted); unlike
        #: ``_users`` this shrinks at release time, not elimination time,
        #: so index maintenance never walks the finished-but-uneliminated
        #: tail a straggler pins in place.
        self._unreleased: Dict[LayerId, List[int]] = {}
        # --- readiness index state ------------------------------------
        self._scopes: Dict[Hashable, _ScopeIndex] = {}
        #: user -> layer -> indexed entries blocked on that (user, layer)
        #: edge; no empty inner container is kept, so a user's keys are
        #: exactly the layers somebody still awaits from it
        self._waiters: Dict[int, Dict[LayerId, Set[_Entry]]] = {}
        #: layer -> indexed entries whose tracked slice contains it (used
        #: to add edges when an *earlier* subnet registers late)
        self._watchers: Dict[LayerId, Set[_Entry]] = {}
        #: scopes whose ready list changed since their owner last polled
        #: them (the owner discards; the CSP policy wakes exactly these)
        self.dirty_scopes: Set[Hashable] = set()

    # ------------------------------------------------------------------
    # registration / lifecycle
    # ------------------------------------------------------------------
    def register(self, subnet: Subnet) -> None:
        """Admit a subnet into dependency bookkeeping."""
        if subnet.subnet_id in self._subnets:
            raise SchedulingError(f"subnet {subnet.subnet_id} registered twice")
        self._subnets[subnet.subnet_id] = subnet
        self._released[subnet.subnet_id] = set()
        for layer in subnet.layer_ids():
            insort(self._users.setdefault(layer, []), subnet.subnet_id)
            insort(self._unreleased.setdefault(layer, []), subnet.subnet_id)
            watchers = self._watchers.get(layer)
            if watchers:
                # A subnet registering out of sequence order blocks any
                # already-indexed later entry sharing this layer.
                for scope_key, waiting in list(watchers):
                    if waiting > subnet.subnet_id:
                        self._add_edge(
                            scope_key, waiting, subnet.subnet_id, layer
                        )

    def is_registered(self, subnet_id: int) -> bool:
        return subnet_id in self._subnets or subnet_id < self.frontier

    def reset_frontier(self, base: int) -> None:
        """Start elimination at ``base`` (a recovered run's resume cut).

        A restarted stream carries its original sequence IDs from the
        checkpoint cut onward; without moving the frontier, the
        contiguity walk in :meth:`_advance_frontier` would wait forever
        for ids the previous incarnation already finished and the
        elimination scheme would never prune — correct but unboundedly
        growing state.  Only allowed before any subnet registers.
        """
        if self._subnets or self._finished:
            raise SchedulingError(
                "reset_frontier is only valid on an empty tracker"
            )
        self.frontier = base

    def release_layers(self, subnet_id: int, layers: Iterable[LayerId]) -> None:
        """Record that ``subnet_id``'s WRITE on ``layers`` has committed."""
        if subnet_id not in self._released:
            raise SchedulingError(f"release for unregistered subnet {subnet_id}")
        self._commit_release(subnet_id, layers)

    def mark_finished(self, subnet_id: int) -> None:
        """Mark a subnet fully done (all writes committed) and advance
        the elimination frontier past any finished prefix."""
        if subnet_id not in self._subnets:
            raise SchedulingError(f"finish for unregistered subnet {subnet_id}")
        subnet = self._subnets[subnet_id]
        self._commit_release(subnet_id, subnet.layer_ids())
        self._finished.add(subnet_id)
        self._advance_frontier()

    def _commit_release(
        self, subnet_id: int, layers: Iterable[LayerId]
    ) -> None:
        """Apply newly released layers and drain the affected edges."""
        released = self._released[subnet_id]
        awaited = self._waiters.get(subnet_id)
        for layer in layers:
            if layer in released:
                continue
            released.add(layer)
            unreleased = self._unreleased.get(layer)
            if unreleased is not None and _sorted_remove(unreleased, subnet_id):
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

    def _advance_frontier(self) -> None:
        while self.frontier in self._finished:
            self._eliminate(self.frontier)
            self.frontier += 1

    def _eliminate(self, subnet_id: int) -> None:
        subnet = self._subnets.pop(subnet_id)
        self._released.pop(subnet_id, None)
        self._finished.discard(subnet_id)
        for layer in frozenset(subnet.layer_ids()):
            users = self._users.get(layer)
            if users and users[0] == subnet_id:
                users.pop(0)
                if not users:
                    del self._users[layer]

    # ------------------------------------------------------------------
    # readiness index
    # ------------------------------------------------------------------
    def _add_edge(
        self, scope_key: Hashable, waiting: int, user: int, layer: LayerId
    ) -> None:
        scope = self._scopes[scope_key]
        edges = scope.blocked[waiting]
        if (user, layer) in edges:
            return
        if not edges:
            _sorted_remove(scope.ready, waiting)
            self.dirty_scopes.add(scope_key)
        edges.add((user, layer))
        self._await(user, layer, (scope_key, waiting))

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
        scheduler call.  Re-adding an id replaces its tracked slice.
        """
        scope = self._scopes.setdefault(scope_key, _ScopeIndex())
        if subnet_id in scope.layers:
            self.index_discard(scope_key, subnet_id)
        layer_list = list(layers)
        scope.layers[subnet_id] = layer_list
        edges: Set[_Edge] = set()
        entry = (scope_key, subnet_id)
        for layer in layer_list:
            self._watchers.setdefault(layer, set()).add(entry)
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
        for layer in layer_list:
            watchers = self._watchers.get(layer)
            if watchers is not None:
                watchers.discard(entry)
                if not watchers:
                    del self._watchers[layer]
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
        """``len(ready_ids(scope_key))`` without copying the list — the
        per-decision counter sample in the CSP policy only needs the
        size."""
        scope = self._scopes.get(scope_key)
        return len(scope.ready) if scope is not None else 0

    def first_ready(
        self, scope_key: Hashable, skip: Optional[Set[int]] = None
    ) -> Optional[int]:
        """Lowest ready id not in ``skip`` — the scheduler's O(1) pop."""
        scope = self._scopes.get(scope_key)
        if scope is None:
            return None
        if not skip:
            return scope.ready[0] if scope.ready else None
        for subnet_id in scope.ready:
            if subnet_id not in skip:
                return subnet_id
        return None

    def overlay(self, scope_key: Hashable) -> "ReadinessOverlay":
        """A copy-on-write hypothetical view of one scope's readiness."""
        return ReadinessOverlay(self, scope_key)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_finished(self, subnet_id: int) -> bool:
        return subnet_id < self.frontier or subnet_id in self._finished

    def has_released(self, subnet_id: int, layer: LayerId) -> bool:
        if subnet_id < self.frontier:
            return True
        return layer in self._released.get(subnet_id, ())

    def blocking_user(
        self, subnet_id: int, layers: Iterable[LayerId]
    ) -> Optional[Tuple[int, LayerId]]:
        """First (earlier subnet, layer) pair still blocking ``subnet_id``.

        Returns None when every earlier user of every given layer has
        released it — i.e. the access is CSP-clear.
        """
        for layer in layers:
            for user in self._users.get(layer, ()):
                if user >= subnet_id:
                    break  # user lists are sorted; no earlier users left
                if not self.has_released(user, layer):
                    return user, layer
        return None

    def is_clear(self, subnet_id: int, layers: Iterable[LayerId]) -> bool:
        return self.blocking_user(subnet_id, layers) is None

    def dependency_exists(self, earlier_id: int, later_id: int) -> bool:
        """Whether two registered subnets share at least one layer."""
        earlier = self._subnets.get(earlier_id)
        later = self._subnets.get(later_id)
        if earlier is None or later is None:
            return False
        return depends_on(later, earlier)

    def active_subnets(self) -> List[int]:
        return sorted(self._subnets)

    def layer_users(self, layer: LayerId) -> List[int]:
        return list(self._users.get(layer, ()))


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
