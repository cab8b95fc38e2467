"""Content-based broker node (Siena/Gryphon style).

A broker accepts subscriptions from local clients, matches published events
against them, and participates in an overlay of brokers managed by
:class:`repro.pubsub.router.BrokerOverlay`: subscriptions propagate through
the overlay (pruned by covering relations) so that published events are
forwarded only toward brokers with interested subscribers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.pubsub.events import Event
from repro.pubsub.matching import MatchingEngine, RouteProbeCache
from repro.pubsub.subscriptions import Subscription, minimal_cover

DeliveryCallback = Callable[[str, Event, Subscription], None]


@dataclass
class BrokerStats:
    """Per-broker accounting used by the scalability benchmarks."""

    events_published: int = 0
    events_forwarded: int = 0
    events_delivered: int = 0
    subscriptions_received: int = 0
    subscriptions_forwarded: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "events_published": self.events_published,
            "events_forwarded": self.events_forwarded,
            "events_delivered": self.events_delivered,
            "subscriptions_received": self.subscriptions_received,
            "subscriptions_forwarded": self.subscriptions_forwarded,
        }


class Broker:
    """One node in the content-based routing overlay."""

    def __init__(self, name: str) -> None:
        self.name = name
        # Subscriptions from clients attached directly to this broker.
        self.local_engine = MatchingEngine()
        # Subscriptions learned from each neighbouring broker (routing state):
        # neighbour name -> matching engine of subscriptions reachable via it.
        self.remote_engines: Dict[str, MatchingEngine] = {}
        self.neighbours: Set[str] = set()
        self.stats = BrokerStats()
        self._delivery_callbacks: List[DeliveryCallback] = []
        # Per-neighbour forwarding-probe caches (see RouteProbeCache):
        # keyed by neighbour name, validated against the remote engine's
        # identity and mutation version on every probe, so stale entries
        # never outlive a routing-table change or an engine swap.
        self._route_probe_caches: Dict[str, RouteProbeCache] = {}

    # -- wiring ------------------------------------------------------------

    def add_neighbour(self, neighbour_name: str) -> None:
        self.neighbours.add(neighbour_name)
        if neighbour_name not in self.remote_engines:
            self.remote_engines[neighbour_name] = MatchingEngine()

    def remove_neighbour(self, neighbour_name: str) -> None:
        """Drop a neighbour link and every route learned through it."""
        self.neighbours.discard(neighbour_name)
        self.remote_engines.pop(neighbour_name, None)

    def clear_remote(self, neighbour_name: str) -> None:
        """Forget all routing state learned via ``neighbour_name`` while
        keeping the link (route repair rebuilds the table in place)."""
        if neighbour_name in self.remote_engines:
            self.remote_engines[neighbour_name] = MatchingEngine()

    def on_delivery(self, callback: DeliveryCallback) -> None:
        """Register a callback invoked for every local delivery
        (subscriber name, event, matching subscription)."""
        self._delivery_callbacks.append(callback)

    # -- subscription management --------------------------------------------

    def subscribe_local(self, subscription: Subscription) -> None:
        """A directly attached client placed a subscription.

        ``subscriptions_received`` counts distinct subscriptions, so a
        client re-issuing an already-held subscription id (identical, or
        with a changed definition that the engine replaces on re-add) does
        not double-count.
        """
        is_new = subscription.subscription_id not in self.local_engine
        self.local_engine.add(subscription)
        if is_new:
            self.stats.subscriptions_received += 1

    def subscribe_local_many(self, subscriptions: Iterable[Subscription]) -> None:
        """Batch ingest of local subscriptions.

        Same per-subscription semantics as :meth:`subscribe_local`
        (distinct-id accounting, replace-on-readd), through the engine's
        ``add_many`` batch path.
        """
        engine = self.local_engine
        batch = list(subscriptions)
        # An id counts once if the engine did not know it before the batch,
        # no matter how many definitions of it the batch carries.
        fresh = len(
            {s.subscription_id for s in batch}
            - {s.subscription_id for s in batch if s.subscription_id in engine}
        )
        engine.add_many(batch)
        self.stats.subscriptions_received += fresh

    def unsubscribe_local(self, subscription_id: str) -> bool:
        return self.local_engine.remove(subscription_id)

    def learn_remote(self, neighbour_name: str, subscription: Subscription) -> None:
        """Record that events matching ``subscription`` must be forwarded to
        ``neighbour_name``."""
        engine = self.remote_engines.get(neighbour_name)
        if engine is None:
            engine = self.remote_engines[neighbour_name] = MatchingEngine()
        engine.add(subscription)

    def forget_remote(self, neighbour_name: str, subscription_id: str) -> bool:
        engine = self.remote_engines.get(neighbour_name)
        if engine is None:
            return False
        return engine.remove(subscription_id)

    def advertised_subscriptions(self, exclude_neighbour: Optional[str] = None) -> List[Subscription]:
        """The minimal covering set of subscriptions this broker must
        advertise to a neighbour: its local subscriptions plus those learned
        from all *other* neighbours.  ``minimal_cover`` finds each
        candidate's covers through a :class:`CoveringIndex` lookup, so
        this is no longer the all-pairs ``covers()`` sweep it once was."""
        subscriptions: List[Subscription] = list(self.local_engine.subscriptions())
        for neighbour, engine in self.remote_engines.items():
            if neighbour == exclude_neighbour:
                continue
            subscriptions.extend(engine.subscriptions())
        return minimal_cover(subscriptions)

    # -- event handling ------------------------------------------------------

    def deliver_local(self, event: Event) -> List[Subscription]:
        """Match an event against local subscriptions and deliver."""
        matched = self.local_engine.match(event)
        for subscription in matched:
            self.stats.events_delivered += 1
            for callback in self._delivery_callbacks:
                callback(subscription.subscriber, event, subscription)
        return matched

    def interested_neighbours(self, event: Event, exclude: Optional[str] = None) -> List[str]:
        """Neighbours that have at least one remote subscription matching
        ``event`` (the forwarding decision of content-based routing)."""
        interested = []
        caches = self._route_probe_caches
        for neighbour, engine in self.remote_engines.items():
            if neighbour == exclude:
                continue
            # Only the boolean matters on the forwarding path; answer
            # through the per-neighbour probe cache (validated against the
            # engine's mutation version) so a stream of routing decisions
            # amortizes the index walks.
            cache = caches.get(neighbour)
            if cache is None:
                cache = caches[neighbour] = RouteProbeCache()
            if engine.matches_any_cached(event, cache):
                interested.append(neighbour)
        return sorted(interested)

    @property
    def local_subscription_count(self) -> int:
        return len(self.local_engine)

    def routing_table_size(self) -> int:
        """Total remote subscriptions held as routing state."""
        return sum(len(engine) for engine in self.remote_engines.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Broker({self.name!r}, local={self.local_subscription_count}, "
            f"routing={self.routing_table_size()})"
        )
