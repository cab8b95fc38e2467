"""Failure detector, route repair/failback, and convergence oracle."""

from __future__ import annotations

import pytest

from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.cluster.recovery import (
    FailureDetector,
    rebuilt_routing_snapshot,
    routing_converged,
)
from repro.cluster.routing import RoutingFabric
from repro.pubsub.broker import Broker
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Operator, Predicate, Subscription


def _topic_sub(topic, subscriber="u"):
    return Subscription(
        event_type="news.story",
        predicates=(Predicate("topic", Operator.EQ, topic),),
        subscriber=subscriber,
    )


def _priority_sub(bound, subscriber="u"):
    return Subscription(
        event_type="news.story",
        predicates=(Predicate("priority", Operator.GE, bound),),
        subscriber=subscriber,
    )


def _event(topic, priority=5):
    return Event(
        event_type="news.story", attributes={"topic": topic, "priority": priority}
    )


def _line(num=3, period=0.02, timeout=0.07, **kw):
    cluster = BrokerCluster(service_rate=1000.0, link_latency=0.002, **kw)
    names = build_cluster_topology("line", num, cluster)
    detector = FailureDetector(cluster, period=period, timeout=timeout)
    return cluster, names, detector


class TestDetectorBasics:
    def test_validation(self):
        cluster = BrokerCluster()
        with pytest.raises(ValueError):
            FailureDetector(cluster, period=0.0, timeout=1.0)
        with pytest.raises(ValueError):
            FailureDetector(cluster, period=0.1, timeout=0.1)

    def test_double_start_rejected(self):
        cluster, _names, detector = _line()
        detector.start(until=1.0)
        with pytest.raises(RuntimeError):
            detector.start()

    def test_attaching_over_a_running_detector_rejected(self):
        """A second detector would steal heartbeat receipts from the
        running one, which would then suspect every healthy link."""
        cluster, _names, detector = _line()
        detector.start(until=1.0)
        with pytest.raises(ValueError):
            FailureDetector(cluster, period=0.02, timeout=0.07)
        detector.stop()
        hooks_before = len(cluster._lifecycle_callbacks)
        FailureDetector(cluster, period=0.02, timeout=0.07)  # stopped: fine
        # The replaced detector's lifecycle hook was detached, not leaked.
        assert len(cluster._lifecycle_callbacks) == hooks_before

    def test_quiet_cluster_raises_no_suspicion(self):
        cluster, _names, detector = _line()
        detector.start(until=2.0)
        cluster.run(until=2.0)
        assert cluster.metrics.counter("detector.suspicions").value == 0
        assert cluster.metrics.counter("detector.heartbeats_sent").value > 0

    def test_detector_until_bounds_the_process(self):
        cluster, _names, detector = _line()
        detector.start(until=0.5)
        cluster.run()  # drains completely because ticking stops
        assert cluster.sim.now <= 0.6

    def test_stop_then_restart_runs_a_single_tick_chain(self):
        """stop() must cancel the pending tick: restarting immediately
        afterwards may not leave two chains heartbeating in parallel."""
        cluster, _names, detector = _line(2, period=0.05, timeout=0.2)
        detector.start()
        cluster.run(until=0.2)
        detector.stop()
        detector.start(until=1.0)
        cluster.run(until=1.0)
        # One chain at 50 ms over ~1 s with 2 directed pairs: ~40 sends.
        # A doubled chain would send ~2x that.
        sent = cluster.metrics.counter("detector.heartbeats_sent").value
        assert sent <= 42


class TestCrashDetectionAndFailback:
    def test_crash_tears_routes_down_after_timeout(self):
        cluster, names, detector = _line(3)
        cluster.subscribe("b2", _topic_sub("sports", subscriber="alice"))
        assert cluster.total_routing_state() == 2
        detector.start(until=3.0)
        cluster.crash_at(0.5, "b2")
        cluster.run(until=1.5)
        # b1 suspected b2 and tore the link down; the route toward alice
        # was repaired away everywhere.
        assert not cluster.overlay_link_is_up("b1", "b2")
        assert cluster.total_routing_state() == 0
        assert cluster.metrics.counter("detector.suspicions").value >= 1
        assert cluster.metrics.counter("detector.false_suspicions").value == 0

    def test_recovery_restores_routes_and_delivery(self):
        cluster, names, detector = _line(3)
        cluster.subscribe("b2", _topic_sub("sports", subscriber="alice"))
        seen = []
        cluster.on_delivery(lambda b, s, e, x: seen.append((round(cluster.sim.now, 2), s)))
        detector.start(until=5.0)
        cluster.crash_at(0.5, "b2")
        cluster.recover_at(1.5, "b2")
        # Published mid-outage after detection: lost (no route).  Published
        # after failback: delivered.
        cluster.publish_at(1.0, "b0", _event("sports"))
        cluster.publish_at(3.0, "b0", _event("sports"))
        cluster.run(until=5.0)
        assert [s for _at, s in seen] == ["alice"]
        assert seen[0][0] >= 3.0
        assert cluster.overlay_link_is_up("b1", "b2")
        assert cluster.total_routing_state() == 2
        assert routing_converged(cluster.fabric)
        assert cluster.metrics.counter("detector.link_restores").value >= 1
        assert detector.last_restore_time is not None

    def test_hub_crash_partitions_star_and_heals(self):
        cluster = BrokerCluster(service_rate=1000.0, link_latency=0.002)
        names = build_cluster_topology("star", 4, cluster)
        detector = FailureDetector(cluster, period=0.02, timeout=0.07)
        for name in names[1:]:
            cluster.subscribe(name, _topic_sub("t", subscriber=f"user-{name}"))
        state_before = cluster.total_routing_state()
        detector.start(until=6.0)
        cluster.crash_at(0.5, "b0")  # the hub: every link dies
        cluster.recover_at(2.0, "b0")
        cluster.run(until=6.0)
        assert all(cluster.overlay_link_is_up("b0", name) for name in names[1:])
        assert cluster.total_routing_state() == state_before
        assert routing_converged(cluster.fabric)

    def test_false_suspicion_under_slow_links_heals_itself(self):
        # Link latency exceeds the timeout: heartbeats always arrive "too
        # late", so healthy peers get suspected and then restored on the
        # next heartbeat receipt — a flapping detector, not a dead system.
        cluster = BrokerCluster(service_rate=1000.0, link_latency=0.2)
        build_cluster_topology("line", 2, cluster)
        detector = FailureDetector(cluster, period=0.05, timeout=0.12)
        cluster.subscribe("b1", _topic_sub("t", subscriber="alice"))
        detector.start(until=3.0)
        cluster.run(until=3.0)
        assert cluster.metrics.counter("detector.false_suspicions").value >= 1
        assert cluster.metrics.counter("detector.link_restores").value >= 1

    def test_physical_link_churn_detected_and_healed(self):
        cluster, names, detector = _line(3)
        cluster.subscribe("b2", _topic_sub("sports", subscriber="alice"))
        detector.start(until=5.0)
        cluster.sim.schedule_at(
            0.5, lambda _e: cluster.network.set_link_down("b1", "b2")
        )
        cluster.sim.schedule_at(
            1.5, lambda _e: cluster.network.set_link_up("b1", "b2")
        )
        cluster.run(until=2.5)
        assert cluster.metrics.counter("detector.suspicions").value >= 1
        assert cluster.overlay_link_is_up("b1", "b2")
        assert routing_converged(cluster.fabric)
        assert cluster.total_routing_state() == 2


class TestManualLinkControl:
    def test_fail_and_restore_link_repair_routes(self):
        cluster, names, _detector = _line(3)
        broad = _priority_sub(1, subscriber="alice")
        narrow = _priority_sub(6, subscriber="bob")
        cluster.subscribe("b2", broad)
        cluster.subscribe("b0", narrow)
        assert cluster.fail_link("b1", "b2") is True
        assert cluster.fail_link("b1", "b2") is False  # already down
        # b2-homed routes purged from the surviving side, b0's remain on b1.
        assert routing_converged(cluster.fabric)
        assert cluster.restore_link("b1", "b2") is True
        assert cluster.restore_link("b1", "b2") is False  # already up
        assert routing_converged(cluster.fabric)
        assert cluster.total_routing_state() == 4

    def test_restore_unknown_link_refused(self):
        cluster, names, _detector = _line(3)
        assert cluster.restore_link("b0", "b2") is False  # never connected


class TestFabricMutation:
    def _fabric(self, num=4):
        fabric = RoutingFabric()
        for index in range(num):
            fabric.add_node(f"n{index}", Broker(f"n{index}"))
        for index in range(num - 1):
            fabric.connect(f"n{index}", f"n{index + 1}")
        return fabric

    def test_disconnect_unknown_link_returns_false(self):
        fabric = self._fabric()
        assert fabric.disconnect("n0", "n2") is False
        assert fabric.disconnect("n0", "n1") is True

    def test_disconnect_purges_unreachable_and_repairs_covering(self):
        fabric = self._fabric(3)
        broad = _priority_sub(1, subscriber="alice")
        narrow = _priority_sub(6, subscriber="bob")
        fabric.subscribe_at("n2", broad)  # covers narrow's routes upstream
        fabric.subscribe_at("n2", narrow)
        # narrow was pruned at n1/n0 (broad already routed via the same
        # neighbour); snapshot shows only broad's routes.
        assert fabric.routing_snapshot()["n0"]["n1"] == (broad.subscription_id,)
        fabric.disconnect("n1", "n2")
        # Both live on the far side; nothing routed on the n0|n1 island.
        assert fabric.routing_snapshot().get("n0", {}) == {}
        assert fabric.routing_snapshot().get("n1", {}) == {}
        assert routing_converged(fabric)

    def test_remove_node_drops_homed_subscriptions(self):
        fabric = self._fabric(3)
        fabric.subscribe_at("n2", _topic_sub("t", subscriber="alice"))
        fabric.subscribe_at("n0", _topic_sub("s", subscriber="bob"))
        fabric.remove_node("n2")
        assert fabric.node_names() == ["n0", "n1"]
        assert len(fabric.live_subscriptions()) == 1
        assert routing_converged(fabric)
        with pytest.raises(KeyError):
            fabric.remove_node("ghost")

    def test_edges_reported_once(self):
        fabric = self._fabric(3)
        assert fabric.edges() == [("n0", "n1"), ("n1", "n2")]


class TestConvergenceOracle:
    def test_converged_on_static_topology(self):
        cluster, names, _detector = _line(4)
        for index, name in enumerate(names):
            cluster.subscribe(name, _priority_sub(index + 1, subscriber=f"u{index}"))
        assert routing_converged(cluster.fabric)
        snapshot = cluster.fabric.routing_snapshot()
        assert snapshot == rebuilt_routing_snapshot(cluster.fabric)

    def test_detects_stale_state(self):
        cluster, names, _detector = _line(3)
        subscription = _topic_sub("t", subscriber="alice")
        cluster.subscribe("b2", subscription)
        # Manufacture a stale route: a subscription the fabric no longer
        # tracks lingers in b0's table toward b1.
        ghost = _topic_sub("ghost", subscriber="ghost")
        cluster.fabric.nodes["b0"].learn_remote("b1", ghost)
        assert not routing_converged(cluster.fabric)
