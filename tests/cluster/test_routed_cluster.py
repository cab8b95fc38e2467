"""Routed BrokerCluster units: links, forwarding, hop/delay metrics."""

from __future__ import annotations

import pytest

from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Operator, Predicate, Subscription


def _topic_sub(topic, subscriber="u"):
    return Subscription(
        event_type="news.story",
        predicates=(Predicate("topic", Operator.EQ, topic),),
        subscriber=subscriber,
    )


def _event(topic):
    return Event(event_type="news.story", attributes={"topic": topic})


def _line_cluster(num_brokers=3, **kw):
    cluster = BrokerCluster(service_rate=100.0, link_latency=0.01, **kw)
    build_cluster_topology("line", num_brokers, cluster)
    return cluster


class TestTopologyBuilder:
    def test_shapes(self):
        for topology, expected_edges in (("line", 3), ("star", 3), ("tree", 3)):
            cluster = BrokerCluster()
            names = build_cluster_topology(topology, 4, cluster)
            assert names == ["b0", "b1", "b2", "b3"]
            edges = sum(len(cluster.fabric.neighbours(n)) for n in names) // 2
            assert edges == expected_edges

    def test_star_centre_and_tree_parent(self):
        star = BrokerCluster()
        build_cluster_topology("star", 4, star)
        assert star.fabric.neighbours("b0") == {"b1", "b2", "b3"}
        tree = BrokerCluster()
        build_cluster_topology("tree", 5, tree)
        assert tree.fabric.neighbours("b0") == {"b1", "b2"}
        assert tree.fabric.neighbours("b1") == {"b0", "b3", "b4"}

    def test_validations(self):
        cluster = BrokerCluster()
        with pytest.raises(ValueError):
            build_cluster_topology("ring", 3, cluster)
        with pytest.raises(ValueError):
            build_cluster_topology("line", 0, BrokerCluster())

    def test_cluster_link_validations(self):
        with pytest.raises(ValueError):
            BrokerCluster(link_latency=-1.0)
        cluster = BrokerCluster()
        cluster.add_broker("a")
        cluster.add_broker("b")
        with pytest.raises(ValueError):
            cluster.connect("a", "b", latency=-0.5)


class TestRoutedDelivery:
    def test_event_forwards_to_remote_subscriber(self):
        cluster = _line_cluster()
        cluster.subscribe("b2", _topic_sub("sports", subscriber="alice"))
        seen = []
        cluster.on_delivery(lambda b, s, e, x: seen.append((b, s)))
        cluster.publish_at(0.0, "b0", _event("sports"))
        cluster.run()
        assert seen == [("b2", "alice")]
        # 3 service passes (0.01 each) + 2 link hops (0.01 each).
        assert cluster.sim.now == pytest.approx(0.05)
        assert cluster.metrics.histogram("cluster.delivery_hops").samples() == (2.0,)
        assert cluster.metrics.histogram("cluster.e2e_delay").samples() == pytest.approx(
            (0.05,)
        )
        assert cluster.metrics.counter("cluster.events_forwarded").value == 2

    def test_uninterested_branches_not_visited(self):
        cluster = BrokerCluster(service_rate=100.0, link_latency=0.01)
        build_cluster_topology("star", 4, cluster)
        cluster.subscribe("b1", _topic_sub("sports", subscriber="alice"))
        cluster.subscribe("b2", _topic_sub("weather", subscriber="bob"))
        cluster.publish_at(0.0, "b3", _event("sports"))
        cluster.run()
        stats = cluster.stats_by_broker()
        assert stats["b1"]["deliveries"] == 1
        assert stats["b2"]["events_enqueued"] == 0  # never forwarded there
        # b3 -> hub -> b1: two forwards in total.
        assert cluster.metrics.counter("cluster.events_forwarded").value == 2

    def test_local_delivery_has_zero_hops(self):
        cluster = _line_cluster()
        cluster.subscribe("b0", _topic_sub("sports", subscriber="alice"))
        cluster.publish_at(0.0, "b0", _event("sports"))
        cluster.run()
        assert cluster.metrics.histogram("cluster.delivery_hops").samples() == (0.0,)

    def test_forwarded_events_queue_like_publications(self):
        # The remote broker is busy with its own publications: the forwarded
        # event's e2e delay includes its queueing/service time there, not
        # just link latency.
        cluster = BrokerCluster(service_rate=2.0, link_latency=0.01)
        cluster.add_broker("ingress")
        cluster.add_broker("busy")
        cluster.connect("ingress", "busy")
        cluster.subscribe("busy", _topic_sub("t", subscriber="alice"))
        cluster.publish_at(0.0, "busy", _event("other"))
        cluster.publish_at(0.0, "busy", _event("other"))
        cluster.publish_at(0.0, "ingress", _event("t"))
        cluster.run()
        (delay,) = cluster.metrics.histogram("cluster.e2e_delay").samples()
        # 0.5 service at ingress + 0.01 link + 0.49 queued behind busy's
        # own two events + 0.5 service at busy.
        assert delay == pytest.approx(1.5)
        assert cluster.stats_by_broker()["busy"]["forwards_received"] == 1

    def test_per_link_latency_override(self):
        cluster = BrokerCluster(service_rate=1000.0, link_latency=0.001)
        cluster.add_broker("a")
        cluster.add_broker("b")
        cluster.connect("a", "b", latency=0.2)
        cluster.subscribe("b", _topic_sub("t"))
        cluster.publish_at(0.0, "a", _event("t"))
        cluster.run()
        (delay,) = cluster.metrics.histogram("cluster.e2e_delay").samples()
        assert delay == pytest.approx(0.001 + 0.2 + 0.001)

    def test_unsubscribe_stops_forwarding(self):
        cluster = _line_cluster()
        subscription = _topic_sub("sports", subscriber="alice")
        cluster.subscribe("b2", subscription)
        assert cluster.unsubscribe("b2", subscription.subscription_id) is True
        cluster.publish_at(0.0, "b0", _event("sports"))
        cluster.run()
        assert cluster.metrics.counter("cluster.events_forwarded").value == 0
        assert cluster.metrics.counter("cluster.deliveries").value == 0
        assert cluster.total_routing_state() == 0

    def test_unsubscribe_unknown_broker_raises(self):
        cluster = _line_cluster()
        with pytest.raises(KeyError):
            cluster.unsubscribe("ghost", "sub-1")

    def test_broker_process_helpers_route_through_fabric(self):
        """BrokerProcess.subscribe/unsubscribe are fabric-aware inside a
        cluster: routes propagate on subscribe and are fully retracted on
        unsubscribe (no stale forwarding state)."""
        cluster = _line_cluster()
        subscription = _topic_sub("sports", subscriber="alice")
        cluster.brokers["b2"].subscribe(subscription)
        assert cluster.total_routing_state() == 2
        assert cluster.brokers["b2"].unsubscribe(subscription.subscription_id) is True
        assert cluster.total_routing_state() == 0
        cluster.publish_at(0.0, "b0", _event("sports"))
        cluster.run()
        assert cluster.metrics.counter("cluster.events_forwarded").value == 0

    def test_failed_connect_leaves_topology_unchanged(self):
        cluster = BrokerCluster()
        cluster.add_broker("a")
        cluster.add_broker("b")
        with pytest.raises(ValueError):
            cluster.connect("a", "b", latency=-0.5)
        assert cluster.fabric.neighbours("a") == set()
        cluster.connect("a", "b", latency=0.5)  # valid retry succeeds
        assert cluster.fabric.neighbours("a") == {"b"}

    def test_network_traffic_accounted(self):
        cluster = _line_cluster()
        cluster.subscribe("b2", _topic_sub("sports", subscriber="alice"))
        cluster.publish_at(0.0, "b0", _event("sports"))
        cluster.run()
        assert cluster.network.kind_message_count("event.forward") == 2
        assert cluster.network.edge_message_count("b0", "b1") == 1
        assert cluster.network.edge_message_count("b1", "b2") == 1

    def test_routing_stats_by_broker(self):
        cluster = _line_cluster()
        cluster.subscribe("b2", _topic_sub("sports", subscriber="alice"))
        routing = cluster.routing_stats_by_broker()
        # b1 and b0 each learned one route toward b2.
        assert routing["b1"]["subscriptions_forwarded"] == 1
        assert routing["b0"]["subscriptions_forwarded"] == 1
        assert cluster.total_routing_state() == 2


class TestUnroutedCompatibility:
    def test_isolated_brokers_behave_as_before(self):
        cluster = BrokerCluster(service_rate=10.0, batch_size=1)
        broker = cluster.add_broker("b0")
        cluster.subscribe("b0", _topic_sub("t"))
        for _ in range(5):
            cluster.publish_at(0.0, "b0", _event("t"))
        cluster.run()
        assert cluster.sim.now == pytest.approx(0.5)
        assert broker.stats.events_processed == 5
        assert broker.stats.events_forwarded == 0
        assert cluster.metrics.counter("cluster.events_forwarded").value == 0
