"""Fault plan/injector units and BrokerCluster crash semantics."""

from __future__ import annotations

import pytest

from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.cluster.faults import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    crash,
    link_down,
    link_up,
    recover,
)
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Operator, Predicate, Subscription
from repro.sim.rng import SeededRNG


def _topic_sub(topic, subscriber="u"):
    return Subscription(
        event_type="news.story",
        predicates=(Predicate("topic", Operator.EQ, topic),),
        subscriber=subscriber,
    )


def _event(topic):
    return Event(event_type="news.story", attributes={"topic": topic})


class TestFaultPlan:
    def test_action_validation(self):
        with pytest.raises(ValueError):
            FaultAction(-1.0, "crash", ("b0",))
        with pytest.raises(ValueError):
            FaultAction(0.0, "explode", ("b0",))
        with pytest.raises(ValueError):
            FaultAction(0.0, "crash", ("b0", "b1"))
        with pytest.raises(ValueError):
            FaultAction(0.0, "link_down", ("b0",))

    def test_plan_orders_and_counts(self):
        plan = FaultPlan([recover(2.0, "a"), crash(1.0, "a"), link_down(0.5, "a", "b")])
        assert [action.kind for action in plan] == ["link_down", "crash", "recover"]
        plan.add(link_up(0.7, "a", "b"))
        assert plan.last_time == 2.0
        assert plan.crash_count == 1
        assert plan.link_flap_count == 1
        assert plan.broker_outages() == [("a", 1.0, 2.0)]

    def test_random_churn_is_seeded_and_paired(self):
        links = [("b0", "b1"), ("b1", "b2")]
        make = lambda: FaultPlan.random_churn(
            ["b0", "b1", "b2"],
            SeededRNG(5),
            start=0.5,
            end=8.0,
            crash_rate=0.6,
            recovery_delay=0.4,
            links=links,
            link_flap_rate=0.3,
            link_down_time=0.2,
        )
        first, second = make(), make()
        assert first.actions == second.actions  # deterministic
        assert first.crash_count > 0
        outages = first.broker_outages()
        assert len(outages) == first.crash_count  # every crash has a recovery
        by_broker = {}
        for name, started, ended in outages:
            assert ended == pytest.approx(started + 0.4)
            assert started >= 0.5
            assert by_broker.get(name, -1.0) <= started  # no overlapping outage
            by_broker[name] = ended
        downs = sum(1 for a in first if a.kind == "link_down")
        ups = sum(1 for a in first if a.kind == "link_up")
        assert downs == ups

    def test_random_churn_validation(self):
        rng = SeededRNG(1)
        with pytest.raises(ValueError):
            FaultPlan.random_churn(["a"], rng, start=2.0, end=1.0)
        with pytest.raises(ValueError):
            FaultPlan.random_churn(["a"], rng, start=0.0, end=1.0, crash_rate=-1.0)
        with pytest.raises(ValueError):
            FaultPlan.random_churn(["a"], rng, start=0.0, end=1.0, recovery_delay=0.0)


class TestFaultInjector:
    def test_actions_fire_on_the_sim_clock(self):
        cluster = BrokerCluster(service_rate=100.0)
        build_cluster_topology("line", 2, cluster)
        plan = FaultPlan([crash(1.0, "b0"), recover(2.0, "b0")])
        injector = FaultInjector(cluster, plan)
        assert injector.schedule() == 2
        cluster.run(until=1.5)
        assert not cluster.brokers["b0"].up
        cluster.run(until=2.5)
        assert cluster.brokers["b0"].up
        assert [a.kind for a in injector.applied] == ["crash", "recover"]
        assert cluster.metrics.counter("faults.crash").value == 1
        assert cluster.metrics.counter("faults.recover").value == 1

    def test_double_schedule_rejected(self):
        cluster = BrokerCluster()
        cluster.add_broker("b0")
        injector = FaultInjector(cluster, FaultPlan([crash(1.0, "b0")]))
        injector.schedule()
        with pytest.raises(RuntimeError):
            injector.schedule()

    def test_link_actions_toggle_the_network(self):
        cluster = BrokerCluster(service_rate=100.0, link_latency=0.01)
        build_cluster_topology("line", 2, cluster)
        plan = FaultPlan([link_down(1.0, "b0", "b1"), link_up(2.0, "b0", "b1")])
        FaultInjector(cluster, plan).schedule()
        cluster.run(until=1.5)
        assert not cluster.network.link_is_up("b0", "b1")
        assert not cluster.network.link_is_up("b1", "b0")
        cluster.run(until=2.5)
        assert cluster.network.link_is_up("b0", "b1")


class TestCrashSemantics:
    def test_mailbox_policy_validation(self):
        with pytest.raises(ValueError):
            BrokerCluster(mailbox_policy="vanish")

    def test_freeze_policy_serves_queue_after_recovery(self):
        cluster = BrokerCluster(service_rate=10.0, mailbox_policy="freeze")
        broker = cluster.add_broker("b0")
        cluster.subscribe("b0", _topic_sub("t"))
        seen = []
        cluster.on_delivery(lambda b, s, e, x: seen.append(round(cluster.sim.now, 3)))
        # Three events land just before the crash; none can be served
        # (service takes 0.1 s each, crash at 0.05).
        for _ in range(3):
            cluster.publish_at(0.0, "b0", _event("t"))
        cluster.crash_at(0.05, "b0")
        cluster.recover_at(1.0, "b0")
        cluster.run()
        # The in-service event died with the process; the two still queued
        # were frozen and served after the restart.
        assert len(seen) == 2
        assert all(at >= 1.0 for at in seen)
        assert broker.stats.events_lost == 1
        assert broker.stats.crashes == 1
        assert broker.stats.downtime == pytest.approx(0.95)

    def test_drop_policy_loses_queue(self):
        cluster = BrokerCluster(service_rate=10.0, mailbox_policy="drop")
        broker = cluster.add_broker("b0")
        cluster.subscribe("b0", _topic_sub("t"))
        seen = []
        cluster.on_delivery(lambda b, s, e, x: seen.append(s))
        for _ in range(3):
            cluster.publish_at(0.0, "b0", _event("t"))
        cluster.crash_at(0.05, "b0")
        cluster.recover_at(1.0, "b0")
        cluster.run()
        assert seen == []
        assert broker.stats.events_lost == 3  # 1 in service + 2 queued
        assert cluster.metrics.counter("cluster.events_lost").value == 3

    def test_publish_to_crashed_broker_is_counted_drop(self):
        cluster = BrokerCluster()
        cluster.add_broker("b0")
        cluster.crash_broker("b0")
        cluster.publish("b0", _event("t"))
        assert cluster.metrics.counter("cluster.publishes_dropped").value == 1
        assert cluster.brokers["b0"].stats.events_enqueued == 0

    def test_forward_to_crashed_broker_is_network_drop(self):
        cluster = BrokerCluster(service_rate=100.0, link_latency=0.01)
        build_cluster_topology("line", 2, cluster)
        cluster.subscribe("b1", _topic_sub("t", subscriber="alice"))
        cluster.crash_at(0.005, "b1")  # dies while the event is queued at b0
        cluster.publish_at(0.0, "b0", _event("t"))
        cluster.run(until=1.0)
        # b0 still believed the route (no detector): the forward was sent
        # and dropped at the vanished endpoint.
        assert cluster.metrics.counter("cluster.events_forwarded").value == 1
        assert cluster.network.messages_dropped == 1
        assert cluster.metrics.counter("cluster.deliveries").value == 0

    def test_crash_and_recover_are_idempotent(self):
        cluster = BrokerCluster()
        broker = cluster.add_broker("b0")
        cluster.crash_broker("b0")
        cluster.crash_broker("b0")
        assert broker.stats.crashes == 1
        cluster.recover_broker("b0")
        cluster.recover_broker("b0")
        assert cluster.metrics.counter("cluster.broker_recoveries").value == 1

    def test_lifecycle_callbacks_and_unavailability(self):
        cluster = BrokerCluster()
        cluster.add_broker("b0")
        lifecycle = []
        cluster.on_lifecycle(lambda kind, name, at: lifecycle.append((kind, name, at)))
        cluster.crash_at(0.5, "b0")
        cluster.recover_at(1.7, "b0")
        cluster.run()
        assert lifecycle == [("crashed", "b0", 0.5), ("recovered", "b0", 1.7)]
        outage = cluster.metrics.histogram("cluster.unavailability")
        assert outage.samples() == (pytest.approx(1.2),)

    def test_no_service_while_down(self):
        """A dispatch scheduled before the crash must not serve afterwards,
        and a recovery in the same instant must not double-serve."""
        cluster = BrokerCluster(service_rate=10.0)
        broker = cluster.add_broker("b0")
        cluster.subscribe("b0", _topic_sub("t"))
        cluster.publish_at(0.0, "b0", _event("t"))
        cluster.crash_at(0.0, "b0")  # fires after the publish (FIFO ties)
        cluster.recover_at(0.0, "b0")
        cluster.run()
        assert broker.stats.events_processed == 1
        assert broker.stats.service_cycles == 1
