"""Replicated subscription state: primary + R replicas with failover.

A :class:`ReplicationManager` homes every managed subscription on a
*primary* broker plus ``replication_factor`` replicas chosen from the
overlay topology (BFS-nearest to the primary, so failover routes stay
short).  It watches the cluster's overlay link events — the
detector-driven signal: a :class:`~repro.cluster.recovery.FailureDetector`
tears a crashed broker's links down one by one as heartbeats miss — and
considers a broker *dead* once every one of its intended links is down.

On death, each subscription acting at the dead broker **fails over**: it
is retracted there and re-issued at the first live broker in its
``[primary, *replicas]`` candidate list, all through the ordinary
control-plane machinery (delta repair, covering, audit), so the resulting
tables are byte-identical to a fresh build (``rebuilt_snapshot()``) and
cross-checkable with ``verify_repairs``.  On recovery (the first restored
link) the subscription **fails back** to its primary the same way.
Deliveries made at a replica carry the same subscription identity, so the
durable layer's subscriber-side dedup keeps the stream exactly-once
across the move.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Set

from repro.pubsub.subscriptions import Subscription

__all__ = ["ReplicatedSubscription", "ReplicationManager"]


@dataclass
class ReplicatedSubscription:
    """Where one managed subscription lives: its primary and replica homes."""

    subscription: Subscription
    primary: str
    replicas: List[str]
    acting: str
    moves: int = 0

    @property
    def candidates(self) -> List[str]:
        return [self.primary, *self.replicas]


class ReplicationManager:
    """Failover/failback of subscription homes over a ``BrokerCluster``.

    Place subscriptions through :meth:`subscribe` (instead of
    ``cluster.subscribe``) to put them under management.  Liveness is
    judged purely from overlay link state (``cluster.overlay_link_is_up``)
    so the manager reacts exactly when the routing layer learns of a
    failure — never earlier than a real detector could.
    """

    def __init__(self, cluster, replication_factor: int = 1) -> None:
        if replication_factor < 0:
            raise ValueError("replication_factor must be non-negative")
        self.cluster = cluster
        self.replication_factor = replication_factor
        self._records: Dict[str, ReplicatedSubscription] = {}
        self._dead: Set[str] = set()
        self.failovers = 0
        self.failbacks = 0
        cluster.on_link_event(self._on_link_event)

    # -- placement ---------------------------------------------------------

    def _neighbours(self, broker: str) -> List[str]:
        """Intended overlay neighbours (sorted for determinism)."""
        found = set()
        for pair in self.cluster.intended_links:
            if broker in pair:
                (other,) = pair - {broker}
                found.add(other)
        return sorted(found)

    def replicas_for(self, primary: str) -> List[str]:
        """BFS-nearest ``replication_factor`` brokers from ``primary``
        over the intended topology (ties broken by name)."""
        chosen: List[str] = []
        visited = {primary}
        frontier: Deque[str] = deque([primary])
        while frontier and len(chosen) < self.replication_factor:
            node = frontier.popleft()
            for neighbour in self._neighbours(node):
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                chosen.append(neighbour)
                if len(chosen) == self.replication_factor:
                    break
                frontier.append(neighbour)
        return chosen

    def subscribe(
        self, primary: str, subscription: Subscription
    ) -> ReplicatedSubscription:
        """Home ``subscription`` at ``primary`` (or, if the primary is
        currently dead, at its best live candidate) under management."""
        if subscription.subscription_id in self._records:
            raise ValueError(
                f"subscription {subscription.subscription_id!r} is already managed"
            )
        record = ReplicatedSubscription(
            subscription=subscription,
            primary=primary,
            replicas=self.replicas_for(primary),
            acting=primary,
        )
        acting = self._desired_home(record)
        record.acting = acting
        self.cluster.subscribe(acting, subscription)
        self._records[subscription.subscription_id] = record
        return record

    def unsubscribe(self, subscription_id: str) -> bool:
        record = self._records.pop(subscription_id, None)
        if record is None:
            return False
        return self.cluster.unsubscribe(record.acting, subscription_id)

    def record(self, subscription_id: str) -> ReplicatedSubscription:
        return self._records[subscription_id]

    def acting_home(self, subscription_id: str) -> str:
        return self._records[subscription_id].acting

    @property
    def records(self) -> List[ReplicatedSubscription]:
        return list(self._records.values())

    # -- liveness ----------------------------------------------------------

    def broker_is_dead(self, broker: str) -> bool:
        return broker in self._dead

    def _judge(self, broker: str) -> bool:
        """Dead iff the broker has intended links and all are down."""
        neighbours = self._neighbours(broker)
        if not neighbours:
            return False
        return not any(
            self.cluster.overlay_link_is_up(broker, neighbour)
            for neighbour in neighbours
        )

    def _on_link_event(self, kind: str, first: str, second: str, at: float) -> None:
        changed = False
        for endpoint in (first, second):
            dead = self._judge(endpoint)
            if dead and endpoint not in self._dead:
                self._dead.add(endpoint)
                changed = True
            elif not dead and endpoint in self._dead:
                self._dead.discard(endpoint)
                changed = True
        if changed:
            self._reevaluate()

    # -- failover / failback ----------------------------------------------

    def _desired_home(self, record: ReplicatedSubscription) -> str:
        """First live candidate; the current home when every candidate is
        dead (nowhere better to go — replay recovers the window)."""
        for candidate in record.candidates:
            if candidate not in self._dead:
                return candidate
        return record.acting

    def _reevaluate(self) -> None:
        metrics = self.cluster.metrics
        for record in self._records.values():
            desired = self._desired_home(record)
            if desired == record.acting:
                continue
            previous = record.acting
            # Retract at the old home and re-issue at the new one through
            # the normal control plane: delta repair keeps the tables
            # canonical (== rebuilt_snapshot) and verify_repairs-clean.
            self.cluster.unsubscribe(previous, record.subscription.subscription_id)
            self.cluster.subscribe(desired, record.subscription)
            record.acting = desired
            record.moves += 1
            if desired == record.primary:
                self.failbacks += 1
                metrics.counter("replication.failbacks").increment()
            else:
                self.failovers += 1
                metrics.counter("replication.failovers").increment()
