"""Replicated subscription state: placement, failover, failback.

:class:`~repro.cluster.replication.ReplicationManager` keeps R replica
homes per subscription (BFS-nearest to the primary), judges a broker dead
purely from the link events the failure detector emits (all intended
links down — never by peeking at process liveness), fails the
subscription over to the first live candidate through the *ordinary*
control plane (unsubscribe + subscribe, so every move is
``verify_repairs``-clean), and fails back when the primary's links heal.
"""

from __future__ import annotations

import pytest

from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.cluster.recovery import routing_converged
from repro.cluster.replication import ReplicationManager
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Subscription


def _line5():
    cluster = BrokerCluster()
    names = build_cluster_topology("line", 5, cluster)
    cluster.fabric.verify_repairs = True
    return cluster, names


def _peers(cluster, broker):
    return sorted(
        next(iter(pair - {broker}))
        for pair in cluster.intended_links
        if broker in pair
    )


def _fail_all_links(cluster, broker):
    """What the failure detector does when a broker dies: mark every one
    of its overlay links failed."""
    for peer in _peers(cluster, broker):
        if cluster.overlay_link_is_up(broker, peer):
            cluster.fail_link(broker, peer)


def _restore_all_links(cluster, broker):
    for peer in _peers(cluster, broker):
        if not cluster.overlay_link_is_up(broker, peer):
            cluster.restore_link(broker, peer)


class TestReplicaHomes:
    def test_replicas_are_bfs_nearest(self):
        cluster, names = _line5()
        replication = ReplicationManager(cluster, replication_factor=2)
        # b0 - b1 - b2 - b3 - b4: nearest two to b3 are b2 and b4.
        assert replication.replicas_for("b3") == ["b2", "b4"]
        assert replication.replicas_for("b0") == ["b1", "b2"]

    def test_factor_capped_by_cluster_size(self):
        cluster, names = _line5()
        replication = ReplicationManager(cluster, replication_factor=10)
        assert len(replication.replicas_for("b2")) == 4

    def test_subscribe_places_at_primary(self):
        cluster, names = _line5()
        replication = ReplicationManager(cluster, replication_factor=1)
        sub = Subscription(event_type="msg", subscriber="a")
        replication.subscribe("b3", sub)
        record = replication.record(sub.subscription_id)
        assert record.primary == "b3"
        assert record.acting == "b3"
        assert record.candidates[0] == "b3"
        assert routing_converged(cluster.fabric)

    def test_duplicate_subscription_id_rejected(self):
        cluster, names = _line5()
        replication = ReplicationManager(cluster)
        sub = Subscription(event_type="msg", subscriber="a")
        replication.subscribe("b0", sub)
        with pytest.raises(ValueError):
            replication.subscribe("b1", sub)

    def test_unsubscribe_retires_the_record(self):
        cluster, names = _line5()
        replication = ReplicationManager(cluster)
        sub = Subscription(event_type="msg", subscriber="a")
        replication.subscribe("b0", sub)
        assert replication.unsubscribe(sub.subscription_id)
        assert not replication.unsubscribe(sub.subscription_id)
        assert not replication.records


class TestFailoverFailback:
    def test_failover_to_live_replica_and_back(self):
        cluster, names = _line5()
        replication = ReplicationManager(cluster, replication_factor=2)
        sub = Subscription(event_type="msg", subscriber="a")
        replication.subscribe("b3", sub)

        cluster.crash_broker("b3")
        _fail_all_links(cluster, "b3")
        assert replication.broker_is_dead("b3")
        record = replication.record(sub.subscription_id)
        assert record.acting == "b2"  # first live candidate after b3
        assert routing_converged(cluster.fabric)

        cluster.recover_broker("b3")
        _restore_all_links(cluster, "b3")
        assert not replication.broker_is_dead("b3")
        assert replication.acting_home(sub.subscription_id) == "b3"
        assert record.moves == 2
        assert routing_converged(cluster.fabric)
        counters = cluster.metrics.snapshot()["counters"]
        assert counters["replication.failovers"] == 1
        assert counters["replication.failbacks"] == 1

    def test_failover_chains_to_next_candidate(self):
        # A ring has no leaves, so link-based death judgement stays sharp
        # while two candidates die in sequence.
        cluster = BrokerCluster(allow_cycles=True)
        build_cluster_topology("ring", 5, cluster)
        cluster.fabric.verify_repairs = True
        replication = ReplicationManager(cluster, replication_factor=2)
        sub = Subscription(event_type="msg", subscriber="a")
        replication.subscribe("b0", sub)
        assert replication.replicas_for("b0") == ["b1", "b4"]
        for name in ("b0", "b1"):
            cluster.crash_broker(name)
            _fail_all_links(cluster, name)
        assert replication.acting_home(sub.subscription_id) == "b4"

    def test_leaf_behind_a_dead_link_counts_as_dead(self):
        # On a line, b4's only link goes through b3: once b3's links are
        # down the detector cannot tell b4 from dead, and replication
        # must treat it so (failover picks b2, not b4).
        cluster, names = _line5()
        replication = ReplicationManager(cluster, replication_factor=2)
        sub = Subscription(event_type="msg", subscriber="a")
        replication.subscribe("b3", sub)
        cluster.crash_broker("b3")
        _fail_all_links(cluster, "b3")
        assert replication.broker_is_dead("b4")
        assert replication.acting_home(sub.subscription_id) == "b2"

    def test_all_candidates_dead_stays_put(self):
        cluster, names = _line5()
        replication = ReplicationManager(cluster, replication_factor=1)
        sub = Subscription(event_type="msg", subscriber="a")
        replication.subscribe("b0", sub)
        for name in ("b0", "b1"):
            cluster.crash_broker(name)
            _fail_all_links(cluster, name)
        # Primary b0 and its only replica b1 are both gone: no live
        # candidate, so the record keeps its last acting home.
        record = replication.record(sub.subscription_id)
        assert record.acting in record.candidates

    def test_delivery_follows_the_acting_home(self):
        cluster, names = _line5()
        deliveries = []
        cluster.on_delivery(
            lambda broker, subscriber, event, subscription: deliveries.append(broker)
        )
        replication = ReplicationManager(cluster, replication_factor=2)
        sub = Subscription(event_type="msg", subscriber="a")
        replication.subscribe("b3", sub)

        cluster.crash_broker("b3")
        _fail_all_links(cluster, "b3")
        cluster.publish("b0", Event(event_type="msg", attributes={}))
        cluster.run()
        assert deliveries == ["b2"], "event did not reach the failover home"
