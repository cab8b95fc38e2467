"""Randomized equivalence: routed BrokerCluster ≡ single-engine oracle.

A routed cluster partitions subscriptions across brokers (by placement
choice) and forwards events over overlay links through mailboxes with
simulated latency — none of which may change *what* is delivered.  For
every topology and subscription placement the union of
deliveries across brokers must equal the match set of one oracle
:class:`MatchingEngine` holding every subscription, event by event.  Churn
(unsubscribing a random slice mid-run, including covering subscriptions
whose removal forces routing repair) must keep the equality.  All
randomness is seeded.
"""

from __future__ import annotations

import pytest

from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.experiments.substrate import make_event, make_subscription
from repro.pubsub.matching import MatchingEngine
from repro.pubsub.subscriptions import Operator, Predicate, Subscription
from repro.sim.rng import SeededRNG

TOPOLOGIES = ["line", "star", "tree"]


def _workload(rng, num_subs, num_events, num_topics=12):
    topics = [f"topic{i:02d}" for i in range(num_topics)]
    sub_rng = rng.fork("subs")
    subscriptions = [
        make_subscription(sub_rng, topics, subscriber=f"user{i % 17}")
        for i in range(num_subs)
    ]
    event_rng = rng.fork("events")
    events = [
        make_event(event_rng, topics, timestamp=float(i))
        for i in range(num_events)
    ]
    return subscriptions, events


def _run_routed(cluster, names, rng, subscriptions, events, churn=0):
    """Drive the cluster and return {event_id: sorted subscription ids}."""
    placement_rng = rng.fork("placement")
    placed = {}
    for subscription in subscriptions:
        home = names[placement_rng.randint(0, len(names) - 1)]
        cluster.subscribe(home, subscription)
        placed[subscription.subscription_id] = home
    removed = set()
    if churn:
        churn_rng = rng.fork("churn")
        victims = list(subscriptions)
        for _ in range(churn):
            victim = victims.pop(churn_rng.randint(0, len(victims) - 1))
            assert cluster.unsubscribe(
                placed[victim.subscription_id], victim.subscription_id
            )
            removed.add(victim.subscription_id)
    delivered = {}
    cluster.on_delivery(
        lambda broker, subscriber, event, subscription: delivered.setdefault(
            event.event_id, []
        ).append(subscription.subscription_id)
    )
    publish_rng = rng.fork("publish")
    at = 0.0
    for event in events:
        at += publish_rng.expovariate(500.0)
        cluster.publish_at(at, names[publish_rng.randint(0, len(names) - 1)], event)
    cluster.run()
    return {event_id: sorted(ids) for event_id, ids in delivered.items()}, removed


def _oracle_sets(subscriptions, events, removed=()):
    oracle = MatchingEngine()
    for subscription in subscriptions:
        if subscription.subscription_id not in removed:
            oracle.add(subscription)
    return {
        event.event_id: sorted(s.subscription_id for s in oracle.match(event))
        for event in events
        if oracle.match(event)
    }


class TestRoutedEquivalence:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", [2, 19])
    def test_delivery_sets_match_oracle(self, topology, seed):
        rng = SeededRNG(seed)
        cluster = BrokerCluster(service_rate=5000.0, link_latency=0.001)
        names = build_cluster_topology(topology, 5, cluster)
        subscriptions, events = _workload(rng, num_subs=160, num_events=80)
        delivered, _ = _run_routed(cluster, names, rng, subscriptions, events)
        assert delivered == _oracle_sets(subscriptions, events)
        # Placements are random across 5 brokers, so some deliveries must
        # have crossed links (the equality is not vacuous).
        assert cluster.metrics.counter("cluster.events_forwarded").value > 0
        assert cluster.metrics.histogram("cluster.delivery_hops").maximum > 0

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_delivery_sets_match_oracle_under_churn(self, topology):
        rng = SeededRNG(101)
        cluster = BrokerCluster(service_rate=5000.0, link_latency=0.001)
        names = build_cluster_topology(topology, 4, cluster)
        subscriptions, events = _workload(rng, num_subs=120, num_events=60)
        delivered, removed = _run_routed(
            cluster, names, rng, subscriptions, events, churn=40
        )
        assert removed
        assert delivered == _oracle_sets(subscriptions, events, removed)

    def test_covering_churn_repairs_routes(self):
        """Removing broad covers mid-stream must not lose narrow deliveries."""
        cluster = BrokerCluster(service_rate=5000.0, link_latency=0.001)
        names = build_cluster_topology("line", 3, cluster)
        broad = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 1),),
            subscriber="alice",
        )
        narrow = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 6),),
            subscriber="alice",
        )
        cluster.subscribe("b2", broad)
        cluster.subscribe("b2", narrow)
        assert cluster.unsubscribe("b2", broad.subscription_id)
        delivered = []
        cluster.on_delivery(
            lambda broker, subscriber, event, subscription: delivered.append(
                subscription.subscription_id
            )
        )
        rng = SeededRNG(7)
        events = [
            make_event(rng, ["topic00"], timestamp=float(i)) for i in range(40)
        ]
        for index, event in enumerate(events):
            cluster.publish_at(index * 0.001, "b0", event)
        cluster.run()
        expected = [
            narrow.subscription_id for event in events if narrow.matches(event)
        ]
        assert sorted(delivered) == sorted(expected)
        assert expected  # the workload must actually exercise the route
