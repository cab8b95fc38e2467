"""Tests for the broker overlay, the Pastry-like DHT and SCRIBE topics."""

import pytest

from repro.pubsub.dht import (
    PastryOverlay,
    circular_distance,
    id_to_digits,
    node_id_for,
    shared_prefix_length,
)
from repro.pubsub.events import Event
from repro.pubsub.router import (
    BrokerOverlay,
    build_line_overlay,
    build_star_overlay,
    build_tree_overlay,
)
from repro.pubsub.subscriptions import Operator, Predicate, Subscription, topic_subscription
from repro.pubsub.topics import ScribeSystem


def news(topic, priority=1):
    return Event(event_type="news.story", attributes={"topic": topic, "priority": priority})


class TestLateLinks:
    def test_connect_after_subscribe_learns_routes(self):
        overlay = BrokerOverlay()
        overlay.add_broker("a")
        overlay.add_broker("b")
        overlay.attach_client("alice", "a")
        overlay.attach_client("pub", "b")
        overlay.subscribe(
            "alice", topic_subscription("news.story", "topic", "sports", subscriber="alice")
        )
        overlay.connect("a", "b")
        report = overlay.publish("pub", news("sports"))
        assert report.deliveries == 1
        assert "alice" in report.subscribers


class TestOverlayTopology:
    def test_connect_requires_existing_brokers(self):
        overlay = BrokerOverlay()
        overlay.add_broker("a")
        with pytest.raises(KeyError):
            overlay.connect("a", "missing")

    def test_duplicate_broker_rejected(self):
        overlay = BrokerOverlay()
        overlay.add_broker("a")
        with pytest.raises(ValueError):
            overlay.add_broker("a")

    def test_self_connection_rejected(self):
        overlay = BrokerOverlay()
        overlay.add_broker("a")
        with pytest.raises(ValueError):
            overlay.connect("a", "a")

    def test_cycles_rejected(self):
        overlay = build_line_overlay(3)
        with pytest.raises(ValueError):
            overlay.connect("b0", "b2")

    def test_builders_produce_expected_sizes(self):
        assert len(build_line_overlay(4).brokers) == 4
        assert len(build_star_overlay(5).brokers) == 6
        assert len(build_tree_overlay(3, 2).brokers) == 7
        with pytest.raises(ValueError):
            build_tree_overlay(0, 2)


class TestContentRouting:
    @pytest.fixture
    def overlay(self):
        overlay = build_line_overlay(4)
        overlay.attach_client("pub", "b0")
        overlay.attach_client("alice", "b3")
        overlay.attach_client("bob", "b1")
        return overlay

    def test_subscription_reaches_subscriber_across_overlay(self, overlay):
        overlay.subscribe("alice", topic_subscription("news.story", "topic", "sports", subscriber="alice"))
        report = overlay.publish("pub", news("sports"))
        assert "alice" in report.subscribers
        assert report.deliveries == 1
        # The event had to traverse the whole chain to reach b3.
        assert "b3" in report.brokers_visited

    def test_unmatched_event_stays_local(self, overlay):
        overlay.subscribe("alice", topic_subscription("news.story", "topic", "sports", subscriber="alice"))
        report = overlay.publish("pub", news("weather"))
        assert report.deliveries == 0
        assert report.brokers_visited == ["b0"]

    def test_flooding_visits_every_broker(self, overlay):
        report = overlay.publish("pub", news("anything"), flood=True)
        assert set(report.brokers_visited) == {"b0", "b1", "b2", "b3"}

    def test_routing_visits_fewer_brokers_than_flooding(self, overlay):
        overlay.subscribe("bob", topic_subscription("news.story", "topic", "local", subscriber="bob"))
        routed = overlay.publish("pub", news("local"))
        flooded = overlay.publish("pub", news("local"), flood=True)
        assert routed.deliveries == flooded.deliveries == 1
        assert len(routed.brokers_visited) <= len(flooded.brokers_visited)

    def test_routing_and_flooding_deliver_same_events(self):
        overlay = build_tree_overlay(3, 2)
        names = overlay.broker_names()
        overlay.attach_client("pub", names[0])
        for index, name in enumerate(names):
            client = f"c{index}"
            overlay.attach_client(client, name)
            overlay.subscribe(client, topic_subscription("news.story", "topic", f"t{index % 3}", subscriber=client))
        for topic in ("t0", "t1", "t2", "none"):
            routed = overlay.publish("pub", news(topic))
            flooded = overlay.publish("pub", news(topic), flood=True)
            assert sorted(routed.subscribers) == sorted(flooded.subscribers)

    def test_unsubscribe_removes_routing_state(self, overlay):
        subscription = topic_subscription("news.story", "topic", "sports", subscriber="alice")
        overlay.subscribe("alice", subscription)
        assert overlay.total_routing_state() > 0
        assert overlay.unsubscribe("alice", subscription.subscription_id) is True
        assert overlay.total_routing_state() == 0
        report = overlay.publish("pub", news("sports"))
        assert report.deliveries == 0

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
        overlay.subscribe("alice", broad)
        state_after_broad = overlay.total_routing_state()
        overlay.subscribe("alice", narrow)
        # The narrow subscription is covered by the broad one on every remote
        # broker, so routing state does not grow.
        assert overlay.total_routing_state() == state_after_broad
        assert overlay.metrics.counter("overlay.subscription_pruned").value > 0

    def test_string_cover_does_not_prune_numeric_equality_route(self, overlay):
        """A CONTAINS subscription must not hide a numeric equality one on
        the same attribute (regression: ``covers`` compared ``str(value)``,
        so the equality route was pruned and its events were lost)."""
        overlay.subscribe("alice", Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.CONTAINS, "5"),),
            subscriber="alice",
        ))
        overlay.subscribe("alice", Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.EQ, 5),),
            subscriber="alice",
        ))
        report = overlay.publish("pub", news("any", priority=5))
        assert report.deliveries == 1
        assert "b3" in report.brokers_visited

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
        overlay.subscribe("alice", broad)
        overlay.subscribe("alice", narrow)  # pruned upstream (broad covers it)
        assert overlay.unsubscribe("alice", broad.subscription_id) is True
        # The narrow subscription must now have its own routes: an event
        # matching it still reaches alice's home broker b3 from b0.
        report = overlay.publish("pub", news("sports", priority=7))
        assert report.deliveries == 1
        assert report.subscribers == ["alice"]
        # And the broad subscription is truly gone.
        low = overlay.publish("pub", news("sports", priority=2))
        assert low.deliveries == 0

    def test_resubscribe_narrower_definition_drops_stale_route(self, overlay):
        """Re-issuing a subscription id with a changed definition retracts
        the old route even when the new definition is covered elsewhere."""
        keeper = Subscription(
            event_type="news.story",
            predicates=(Predicate("topic", Operator.EQ, "sports"),),
            subscriber="alice",
        )
        overlay.subscribe("alice", keeper)
        changing = Subscription(
            event_type="news.story",
            predicates=(Predicate("topic", Operator.EQ, "weather"),),
            subscriber="alice",
        )
        overlay.subscribe("alice", changing)
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
        overlay.subscribe("alice", narrowed)
        # ...and the old weather route must be gone: a weather event no
        # longer leaves the origin broker.
        report = overlay.publish("pub", news("weather"))
        assert report.deliveries == 0
        assert report.brokers_visited == ["b0"]

    def test_resubscribe_same_definition_is_stable(self, overlay):
        subscription = topic_subscription(
            "news.story", "topic", "sports", subscriber="alice"
        )
        overlay.subscribe("alice", subscription)
        state = overlay.total_routing_state()
        overlay.subscribe("alice", subscription)  # identical re-issue
        assert overlay.total_routing_state() == state
        report = overlay.publish("pub", news("sports"))
        assert report.deliveries == 1
        # Re-issuing through the overlay must not double-count the home
        # broker's distinct-subscription stat (pinned in PR 2 for the
        # direct subscribe_local path, preserved across the fabric).
        assert overlay.brokers["b3"].stats.subscriptions_received == 1

    def test_unknown_clients_raise(self, overlay):
        with pytest.raises(KeyError):
            overlay.subscribe("ghost", topic_subscription("news.story", "topic", "x"))
        with pytest.raises(KeyError):
            overlay.publish("ghost", news("x"))
        with pytest.raises(KeyError):
            overlay.attach_client("x", "missing-broker")

    def test_stats_by_broker(self, overlay):
        overlay.subscribe("alice", topic_subscription("news.story", "topic", "sports", subscriber="alice"))
        overlay.publish("pub", news("sports"))
        stats = overlay.stats_by_broker()
        assert stats["b0"]["events_published"] == 1
        assert stats["b3"]["events_delivered"] == 1


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
