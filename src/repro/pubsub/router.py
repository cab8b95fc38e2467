"""Broker overlay with content-based routing (synchronous transport).

The overlay is an acyclic graph (tree) of :class:`~repro.pubsub.broker.Broker`
nodes, as in Siena's hierarchical/acyclic peer-to-peer configurations.
Subscriptions issued at a broker propagate to every other broker (pruned by
covering), publications are forwarded only along edges leading to brokers
with matching subscriptions, and a flooding mode is provided as the
baseline the scalability benchmark compares against.

All routing decisions — topology, subscription propagation and pruning,
unsubscription repair, next-hop selection — live in the transport-agnostic
:class:`~repro.cluster.routing.RoutingFabric`, shared with the sim-clock
:class:`~repro.cluster.broker_cluster.BrokerCluster`.  This class is the
*synchronous* transport over that fabric: a publication walks the
forwarding tree to completion instantly, with no queues or clock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.routing import RoutingFabric
from repro.pubsub.broker import Broker
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Subscription
from repro.sim.metrics import MetricsRegistry


@dataclass
class RoutingReport:
    """Outcome of publishing one event through the overlay."""

    event: Event
    origin_broker: str
    brokers_visited: List[str] = field(default_factory=list)
    hops: int = 0
    deliveries: int = 0
    subscribers: List[str] = field(default_factory=list)


class BrokerOverlay:
    """A network of brokers with content-based (or flooding) routing."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        merge_ingress: bool = False,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.fabric = RoutingFabric(metrics=self.metrics, merge_ingress=merge_ingress)

    @property
    def brokers(self) -> Dict[str, Broker]:
        return self.fabric.nodes  # type: ignore[return-value]

    # -- topology -----------------------------------------------------------

    def add_broker(self, name: str) -> Broker:
        broker = Broker(name)
        self.fabric.add_node(name, broker)
        return broker

    def connect(self, first: str, second: str) -> None:
        """Connect two brokers with a bidirectional overlay link.

        The overlay must remain acyclic; connecting two brokers already
        joined by a path raises ``ValueError``.
        """
        self.fabric.connect(first, second)

    def neighbours(self, broker_name: str) -> Set[str]:
        return self.fabric.neighbours(broker_name)

    def broker_names(self) -> List[str]:
        return self.fabric.node_names()

    # -- client operations ----------------------------------------------------

    def attach_client(self, client: str, broker_name: str) -> None:
        self.fabric.attach_client(client, broker_name)

    def home_broker(self, client: str) -> Optional[str]:
        return self.fabric.home_broker(client)

    def subscribe(self, client: str, subscription: Subscription) -> None:
        """Place a subscription at the client's home broker and propagate it
        through the overlay so every broker learns a route toward it."""
        self.fabric.subscribe(client, subscription)

    def subscribe_many(self, client: str, subscriptions) -> None:
        """Batch-place subscriptions at the client's home broker with one
        advertisement walk for the whole batch."""
        self.fabric.subscribe_many(client, subscriptions)

    def unsubscribe(self, client: str, subscription_id: str) -> bool:
        """Retract a subscription with covering repair.

        The fabric's reverse route index bounds the retraction to the
        routes that actually exist, and its pruned-by graph re-advertises
        only the recorded victims — unsubscribing is O(routes + victims),
        not a sweep over every broker and live subscription.
        """
        return self.fabric.unsubscribe(client, subscription_id)

    def routing_snapshot(self) -> Dict[str, Dict[str, Tuple[str, ...]]]:
        """Canonical per-broker routing tables (see
        :meth:`RoutingFabric.routing_snapshot`), for convergence checks."""
        return self.fabric.routing_snapshot()

    # -- publishing -------------------------------------------------------------

    def publish(self, publisher: str, event: Event, flood: bool = False) -> RoutingReport:
        """Publish an event from ``publisher``'s home broker.

        With ``flood=True`` the event visits every broker (the baseline);
        otherwise it follows content-based forwarding and visits only
        brokers on paths toward matching subscriptions.
        """
        origin = self.fabric.home_broker(publisher)
        if origin is None:
            raise KeyError(f"publisher {publisher!r} is not attached to a broker")
        report = RoutingReport(event=event, origin_broker=origin)
        self.brokers[origin].stats.events_published += 1

        visited: Set[str] = set()
        queue: deque[Tuple[str, Optional[str]]] = deque([(origin, None)])
        while queue:
            broker_name, came_from = queue.popleft()
            if broker_name in visited:
                continue
            visited.add(broker_name)
            broker = self.brokers[broker_name]
            report.brokers_visited.append(broker_name)
            matched = broker.deliver_local(event)
            report.deliveries += len(matched)
            report.subscribers.extend(sub.subscriber for sub in matched)

            for neighbour in self.fabric.next_hops(
                broker_name, event, came_from=came_from, flood=flood
            ):
                if neighbour not in visited:
                    broker.stats.events_forwarded += 1
                    report.hops += 1
                    self.metrics.counter("overlay.event_hops").increment()
                    queue.append((neighbour, broker_name))

        self.metrics.counter("overlay.events_published").increment()
        self.metrics.counter("overlay.event_deliveries").increment(report.deliveries)
        self.metrics.histogram("overlay.brokers_visited").observe(len(report.brokers_visited))
        return report

    # -- convenience ---------------------------------------------------------------

    def total_routing_state(self) -> int:
        return self.fabric.total_routing_state()

    def stats_by_broker(self) -> Dict[str, Dict[str, int]]:
        return {name: broker.stats.as_dict() for name, broker in sorted(self.brokers.items())}


def build_line_overlay(
    num_brokers: int,
    metrics: Optional[MetricsRegistry] = None,
) -> BrokerOverlay:
    """A chain of brokers b0 - b1 - ... - bN-1 (worst-case diameter)."""
    overlay = BrokerOverlay(metrics=metrics)
    for index in range(num_brokers):
        overlay.add_broker(f"b{index}")
    for index in range(num_brokers - 1):
        overlay.connect(f"b{index}", f"b{index + 1}")
    return overlay


def build_star_overlay(
    num_leaves: int,
    metrics: Optional[MetricsRegistry] = None,
) -> BrokerOverlay:
    """A hub broker with ``num_leaves`` leaf brokers."""
    overlay = BrokerOverlay(metrics=metrics)
    overlay.add_broker("hub")
    for index in range(num_leaves):
        name = f"leaf{index}"
        overlay.add_broker(name)
        overlay.connect("hub", name)
    return overlay


def build_tree_overlay(
    depth: int,
    fanout: int,
    metrics: Optional[MetricsRegistry] = None,
) -> BrokerOverlay:
    """A complete tree of brokers with the given depth and fanout."""
    if depth < 1 or fanout < 1:
        raise ValueError("depth and fanout must be at least 1")
    overlay = BrokerOverlay(metrics=metrics)
    overlay.add_broker("t0")
    frontier = ["t0"]
    counter = 1
    for _ in range(depth - 1):
        next_frontier = []
        for parent in frontier:
            for _ in range(fanout):
                name = f"t{counter}"
                counter += 1
                overlay.add_broker(name)
                overlay.connect(parent, name)
                next_frontier.append(name)
        frontier = next_frontier
    return overlay
