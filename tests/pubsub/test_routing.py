"""Tests for content-based routing between brokers, the Pastry-like DHT
and SCRIBE topics.

The routing cases drive a zero-latency :class:`BrokerCluster`: an event
published at a broker is served there and forwarded only toward
neighbours whose routing tables hold a matching subscription, so the
brokers that serve it are the ones it visits.
"""

import pytest

from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.pubsub.dht import (
    PastryOverlay,
    circular_distance,
    id_to_digits,
    node_id_for,
    shared_prefix_length,
)
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Operator, Predicate, Subscription, topic_subscription
from repro.pubsub.topics import ScribeSystem


def news(topic, priority=1):
    return Event(event_type="news.story", attributes={"topic": topic, "priority": priority})


class Routed:
    """A zero-latency cluster that reports, per publication, who received
    the event and which brokers served it."""

    def __init__(self, topology=None, num_brokers=0):
        self.cluster = BrokerCluster(link_latency=0.0)
        if topology is not None:
            build_cluster_topology(topology, num_brokers, self.cluster)
        self._received = []
        self.cluster.on_delivery(
            lambda broker, subscriber, event, subscription: self._received.append(subscriber)
        )

    def publish(self, broker, event):
        """``(subscribers delivered to, sorted names of brokers visited)``."""
        brokers = self.cluster.brokers
        before = {name: process.stats.events_processed for name, process in brokers.items()}
        self._received = []
        self.cluster.publish(broker, event)
        self.cluster.run()
        visited = sorted(
            name for name, process in brokers.items()
            if process.stats.events_processed > before[name]
        )
        return self._received, visited


class TestLateLinks:
    def test_connect_after_subscribe_learns_routes(self):
        routed = Routed()
        routed.cluster.add_broker("a")
        routed.cluster.add_broker("b")
        routed.cluster.subscribe(
            "a", topic_subscription("news.story", "topic", "sports", subscriber="alice")
        )
        routed.cluster.connect("a", "b")
        received, _visited = routed.publish("b", news("sports"))
        assert received == ["alice"]


class TestOverlayTopology:
    def test_connect_requires_existing_brokers(self):
        cluster = BrokerCluster()
        cluster.add_broker("a")
        with pytest.raises(KeyError):
            cluster.connect("a", "missing")

    def test_duplicate_broker_rejected(self):
        cluster = BrokerCluster()
        cluster.add_broker("a")
        with pytest.raises(ValueError):
            cluster.add_broker("a")

    def test_self_connection_rejected(self):
        cluster = BrokerCluster()
        cluster.add_broker("a")
        with pytest.raises(ValueError):
            cluster.connect("a", "a")

    def test_cycles_rejected(self):
        cluster = BrokerCluster()
        build_cluster_topology("line", 3, cluster)
        with pytest.raises(ValueError):
            cluster.connect("b0", "b2")

    def test_builders_produce_expected_sizes(self):
        for topology, size in (("line", 4), ("star", 6), ("tree", 7)):
            cluster = BrokerCluster()
            build_cluster_topology(topology, size, cluster)
            assert len(cluster.brokers) == size
            assert len(cluster.fabric.edges()) == size - 1
        with pytest.raises(ValueError):
            build_cluster_topology("tree", 0, BrokerCluster())


class TestContentRouting:
    @pytest.fixture
    def overlay(self):
        """A line b0 - b1 - b2 - b3; events are published at b0, alice
        subscribes at b3 and bob at b1."""
        return Routed("line", 4)

    def test_subscription_reaches_subscriber_across_overlay(self, overlay):
        overlay.cluster.subscribe("b3", topic_subscription("news.story", "topic", "sports", subscriber="alice"))
        received, visited = overlay.publish("b0", news("sports"))
        assert received == ["alice"]
        # The event had to traverse the whole chain to reach b3.
        assert visited == ["b0", "b1", "b2", "b3"]

    def test_unmatched_event_stays_local(self, overlay):
        overlay.cluster.subscribe("b3", topic_subscription("news.story", "topic", "sports", subscriber="alice"))
        received, visited = overlay.publish("b0", news("weather"))
        assert received == []
        assert visited == ["b0"]

    def test_event_matching_at_every_broker_visits_every_broker(self, overlay):
        for name in ("b0", "b1", "b2", "b3"):
            overlay.cluster.subscribe(name, topic_subscription(
                "news.story", "topic", "anything", subscriber=f"at-{name}"
            ))
        received, visited = overlay.publish("b0", news("anything"))
        assert sorted(received) == ["at-b0", "at-b1", "at-b2", "at-b3"]
        assert visited == ["b0", "b1", "b2", "b3"]

    def test_routing_visits_fewer_brokers_than_flooding(self, overlay):
        # Flooding would visit all four brokers; routing stops at bob's b1.
        overlay.cluster.subscribe("b1", topic_subscription("news.story", "topic", "local", subscriber="bob"))
        received, visited = overlay.publish("b0", news("local"))
        assert received == ["bob"]
        assert visited == ["b0", "b1"]

    def test_routing_and_flooding_deliver_same_events(self):
        # Flooding delivers every subscription that matches: the brute-force
        # match over all of them.
        routed = Routed("tree", 7)
        subscriptions = []
        for index, name in enumerate(sorted(routed.cluster.brokers)):
            client = f"c{index}"
            subscription = topic_subscription(
                "news.story", "topic", f"t{index % 3}", subscriber=client
            )
            routed.cluster.subscribe(name, subscription)
            subscriptions.append(subscription)
        for topic in ("t0", "t1", "t2", "none"):
            received, _visited = routed.publish("b0", news(topic))
            flooded = [s.subscriber for s in subscriptions if s.matches(news(topic))]
            assert sorted(received) == sorted(flooded)

    def test_unsubscribe_removes_routing_state(self, overlay):
        subscription = topic_subscription("news.story", "topic", "sports", subscriber="alice")
        overlay.cluster.subscribe("b3", subscription)
        assert overlay.cluster.total_routing_state() > 0
        assert overlay.cluster.unsubscribe("b3", subscription.subscription_id) is True
        assert overlay.cluster.total_routing_state() == 0
        received, _visited = overlay.publish("b0", news("sports"))
        assert received == []

    def test_covering_prunes_routing_state(self, overlay):
        broad = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 1),),
            subscriber="alice",
        )
        narrow = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 5),),
            subscriber="alice",
        )
        overlay.cluster.subscribe("b3", broad)
        state_after_broad = overlay.cluster.total_routing_state()
        overlay.cluster.subscribe("b3", narrow)
        # The narrow subscription is covered by the broad one on every remote
        # broker, so routing state does not grow.
        assert overlay.cluster.total_routing_state() == state_after_broad
        assert overlay.cluster.metrics.counter("overlay.subscription_pruned").value > 0

    def test_string_cover_does_not_prune_numeric_equality_route(self, overlay):
        """A CONTAINS subscription must not hide a numeric equality one on
        the same attribute (regression: ``covers`` compared ``str(value)``,
        so the equality route was pruned and its events were lost)."""
        overlay.cluster.subscribe("b3", Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.CONTAINS, "5"),),
            subscriber="alice",
        ))
        overlay.cluster.subscribe("b3", Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.EQ, 5),),
            subscriber="alice",
        ))
        received, visited = overlay.publish("b0", news("any", priority=5))
        assert received == ["alice"]
        assert "b3" in visited

    def test_strict_cover_does_not_prune_closed_bound_route(self):
        """``priority > 5`` does not cover ``priority >= 5``: the event
        ``priority = 5`` matches bob's subscription only (regression:
        ``covers`` compared ``o_val >= s_val`` for every ordering pair, so
        bob's route was pruned behind alice's and his event was lost)."""
        routed = Routed("line", 3)
        routed.cluster.subscribe("b2", Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GT, 5),),
            subscriber="alice",
        ))
        routed.cluster.subscribe("b2", Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 5),),
            subscriber="bob",
        ))
        received, visited = routed.publish("b0", news("any", priority=5))
        assert received == ["bob"]
        assert visited == ["b0", "b1", "b2"]

    def test_unsubscribe_restores_covered_routes(self, overlay):
        """Removing a covering subscription must re-advertise the routes of
        subscriptions it covered (regression: the seed overlay left them
        pruned, silently dropping deliveries)."""
        broad = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 1),),
            subscriber="alice",
        )
        narrow = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 5),),
            subscriber="alice",
        )
        overlay.cluster.subscribe("b3", broad)
        overlay.cluster.subscribe("b3", narrow)  # pruned upstream (broad covers it)
        assert overlay.cluster.unsubscribe("b3", broad.subscription_id) is True
        # The narrow subscription must now have its own routes: an event
        # matching it still reaches alice's home broker b3 from b0.
        received, _visited = overlay.publish("b0", news("sports", priority=7))
        assert received == ["alice"]
        # And the broad subscription is truly gone.
        low, _visited = overlay.publish("b0", news("sports", priority=2))
        assert low == []

    def test_resubscribe_narrower_definition_drops_stale_route(self, overlay):
        """Re-issuing a subscription id with a changed definition retracts
        the old route even when the new definition is covered elsewhere."""
        keeper = Subscription(
            event_type="news.story",
            predicates=(Predicate("topic", Operator.EQ, "sports"),),
            subscriber="alice",
        )
        overlay.cluster.subscribe("b3", keeper)
        changing = Subscription(
            event_type="news.story",
            predicates=(Predicate("topic", Operator.EQ, "weather"),),
            subscriber="alice",
        )
        overlay.cluster.subscribe("b3", changing)
        # Re-issue the same id narrowed to sports+priority: covered by
        # keeper, so no new routing state is needed anywhere...
        narrowed = Subscription(
            event_type="news.story",
            predicates=(
                Predicate("topic", Operator.EQ, "sports"),
                Predicate("priority", Operator.GE, 5),
            ),
            subscriber="alice",
            subscription_id=changing.subscription_id,
        )
        overlay.cluster.subscribe("b3", narrowed)
        # ...and the old weather route must be gone: a weather event no
        # longer leaves the origin broker.
        received, visited = overlay.publish("b0", news("weather"))
        assert received == []
        assert visited == ["b0"]

    def test_resubscribe_same_definition_is_stable(self, overlay):
        subscription = topic_subscription(
            "news.story", "topic", "sports", subscriber="alice"
        )
        overlay.cluster.subscribe("b3", subscription)
        state = overlay.cluster.total_routing_state()
        overlay.cluster.subscribe("b3", subscription)  # identical re-issue
        assert overlay.cluster.total_routing_state() == state
        received, _visited = overlay.publish("b0", news("sports"))
        assert received == ["alice"]
        # Re-issuing through the fabric must not double-count the home
        # broker's distinct-subscription stat (pinned in PR 2 for the
        # direct subscribe_local path, preserved across the fabric).
        assert overlay.cluster.routing_stats_by_broker()["b3"]["subscriptions_received"] == 1

    def test_unknown_brokers_raise(self, overlay):
        with pytest.raises(KeyError):
            overlay.cluster.subscribe("ghost", topic_subscription("news.story", "topic", "x"))
        with pytest.raises(KeyError):
            overlay.cluster.publish("ghost", news("x"))

    def test_stats_by_broker(self, overlay):
        overlay.cluster.subscribe("b3", topic_subscription("news.story", "topic", "sports", subscriber="alice"))
        overlay.publish("b0", news("sports"))
        stats = overlay.cluster.stats_by_broker()
        assert stats["b0"]["events_enqueued"] == 1
        assert stats["b0"]["events_forwarded"] == 1
        assert stats["b3"]["deliveries"] == 1


class TestDht:
    def test_node_ids_deterministic_and_in_range(self):
        assert node_id_for("node1") == node_id_for("node1")
        assert 0 <= node_id_for("node1") < 2**32
        assert len(id_to_digits(node_id_for("x"))) == 8

    def test_shared_prefix_and_distance(self):
        assert shared_prefix_length(0xABCD0000, 0xABCE0000) == 3
        assert circular_distance(1, 2**32 - 1) == 2

    def test_join_leave(self):
        overlay = PastryOverlay()
        overlay.join("a")
        assert "a" in overlay and len(overlay) == 1
        with pytest.raises(ValueError):
            overlay.join("a")
        assert overlay.leave("a") is True
        assert overlay.leave("a") is False

    def test_root_is_numerically_closest(self):
        overlay = PastryOverlay()
        for index in range(20):
            overlay.join(f"node{index}")
        key = node_id_for("some-topic")
        root = overlay.root_for(key)
        best = min(overlay.nodes(), key=lambda n: circular_distance(n.node_id, key))
        assert root.node_id == best.node_id

    def test_route_terminates_at_root(self):
        overlay = PastryOverlay()
        for index in range(30):
            overlay.join(f"node{index}")
        key = node_id_for("topic-route")
        result = overlay.route("node0", key)
        assert result.root == overlay.root_for(key).name
        assert result.path[0] == "node0"
        assert len(result.path) <= len(overlay) + 1

    def test_route_from_unknown_node(self):
        overlay = PastryOverlay()
        overlay.join("a")
        with pytest.raises(KeyError):
            overlay.route("missing", 123)

    def test_empty_overlay_has_no_root(self):
        with pytest.raises(RuntimeError):
            PastryOverlay().root_for(1)


class TestScribe:
    @pytest.fixture
    def scribe(self):
        overlay = PastryOverlay()
        for index in range(12):
            overlay.join(f"node{index:02d}")
        return ScribeSystem(overlay)

    def test_subscribe_and_publish_delivers(self, scribe):
        received = []
        scribe.on_delivery(lambda subscriber, topic, event: received.append((subscriber, topic)))
        scribe.subscribe("alice", "node00", "sports")
        scribe.subscribe("bob", "node05", "sports")
        deliveries = scribe.publish("node03", "sports", news("sports"))
        assert deliveries == 2
        assert ("alice", "sports") in received and ("bob", "sports") in received

    def test_publish_without_subscribers(self, scribe):
        assert scribe.publish("node00", "empty-topic", news("x")) == 0

    def test_unsubscribe_removes_and_prunes_tree(self, scribe):
        scribe.subscribe("alice", "node00", "weather")
        assert scribe.subscribers("weather") == ["alice"]
        assert scribe.unsubscribe("alice", "node00", "weather") is True
        assert scribe.topic_count() == 0
        assert scribe.unsubscribe("alice", "node00", "weather") is False

    def test_topic_isolation(self, scribe):
        scribe.subscribe("alice", "node00", "sports")
        scribe.subscribe("bob", "node01", "politics")
        assert scribe.publish("node02", "politics", news("politics")) == 1

    def test_tree_rooted_at_topic_root(self, scribe):
        scribe.subscribe("alice", "node07", "finance")
        tree = scribe.tree_for("finance")
        assert tree.root == scribe.overlay.root_for_topic("finance").name
        assert tree.forwarder_count() >= 1

    def test_unknown_node_rejected(self, scribe):
        with pytest.raises(KeyError):
            scribe.subscribe("alice", "ghost", "sports")
        with pytest.raises(KeyError):
            scribe.publish("ghost", "sports", news("sports"))

    def test_metrics_recorded(self, scribe):
        scribe.subscribe("alice", "node00", "sports")
        scribe.publish("node01", "sports", news("sports"))
        assert scribe.metrics.counter("scribe.joins").value == 1
        assert scribe.metrics.counter("scribe.publications").value == 1
        assert scribe.metrics.counter("scribe.deliveries").value == 1
