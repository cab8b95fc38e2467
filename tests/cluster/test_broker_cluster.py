"""BrokerCluster units: mailbox queueing, service rates, metrics."""

from __future__ import annotations

import pytest

from repro.cluster.broker_cluster import BrokerCluster
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


class TestWiring:
    def test_duplicate_and_unknown_broker(self):
        cluster = BrokerCluster()
        cluster.add_broker("b0")
        with pytest.raises(ValueError):
            cluster.add_broker("b0")
        with pytest.raises(KeyError):
            cluster.publish("nope", _event("t"))

    def test_invalid_broker_parameters(self):
        cluster = BrokerCluster()
        with pytest.raises(ValueError):
            cluster.add_broker("a", service_rate=0)
        with pytest.raises(ValueError):
            cluster.add_broker("b", batch_size=0)
        with pytest.raises(ValueError):
            cluster.add_broker("c", batch_overhead=-1)


class TestQueueing:
    def test_fifo_service_at_configured_rate(self):
        cluster = BrokerCluster(service_rate=10.0, batch_size=1)
        broker = cluster.add_broker("b0")
        cluster.subscribe("b0", _topic_sub("t"))
        for index in range(5):
            cluster.publish_at(0.0, "b0", _event("t"))
        cluster.run()
        # Five events at 0.1 s each, all queued at t=0.
        assert cluster.sim.now == pytest.approx(0.5)
        assert broker.stats.events_processed == 5
        assert broker.stats.service_cycles == 5
        delays = sorted(cluster.metrics.histogram("cluster.queue_delay").samples())
        assert delays == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_batching_amortizes_per_cycle_overhead(self):
        def build(batch_size):
            cluster = BrokerCluster(
                service_rate=100.0, batch_size=batch_size, batch_overhead=0.05
            )
            broker = cluster.add_broker("b0")
            cluster.subscribe("b0", _topic_sub("t"))
            for _ in range(20):
                cluster.publish_at(0.0, "b0", _event("t"))
            cluster.run()
            return cluster, broker

        unbatched, ub = build(1)
        batched, bb = build(20)
        assert ub.stats.service_cycles == 20
        assert bb.stats.service_cycles == 1
        # 20 cycles pay the 50 ms overhead each; one batch pays it once.
        assert unbatched.sim.now == pytest.approx(20 * (0.05 + 0.01))
        assert batched.sim.now == pytest.approx(0.05 + 20 * 0.01)
        assert batched.throughput() > unbatched.throughput()

    def test_batch_drawn_at_service_start(self):
        # An event arriving while a batch is in service waits for the next
        # cycle, even if the in-flight batch was smaller than batch_size.
        cluster = BrokerCluster(service_rate=10.0, batch_size=4)
        broker = cluster.add_broker("b0")
        cluster.subscribe("b0", _topic_sub("t"))
        cluster.publish_at(0.0, "b0", _event("t"))
        cluster.publish_at(0.05, "b0", _event("t"))
        cluster.run()
        assert broker.stats.service_cycles == 2
        assert cluster.sim.now == pytest.approx(0.2)

    def test_deliveries_and_callbacks(self):
        cluster = BrokerCluster(service_rate=100.0)
        cluster.add_broker("b0")
        cluster.subscribe("b0", _topic_sub("t", subscriber="alice"))
        cluster.subscribe("b0", _topic_sub("t", subscriber="bob"))
        cluster.subscribe("b0", _topic_sub("other", subscriber="carol"))
        seen = []
        cluster.on_delivery(
            lambda broker, subscriber, event, subscription: seen.append(
                (broker, subscriber)
            )
        )
        cluster.publish_at(0.0, "b0", _event("t"))
        cluster.run()
        assert sorted(seen) == [("b0", "alice"), ("b0", "bob")]
        assert cluster.metrics.counter("cluster.deliveries").value == 2

    def test_multiple_brokers_serve_independently(self):
        cluster = BrokerCluster(service_rate=10.0)
        cluster.add_broker("fast", service_rate=100.0)
        cluster.add_broker("slow", service_rate=1.0)
        for name in ("fast", "slow"):
            cluster.subscribe(name, _topic_sub("t"))
            cluster.publish_at(0.0, name, _event("t"))
        cluster.run()
        stats = cluster.stats_by_broker()
        assert stats["fast"]["events_processed"] == 1
        assert stats["slow"]["events_processed"] == 1
        assert stats["fast"]["busy_time"] == pytest.approx(0.01)
        assert stats["slow"]["busy_time"] == pytest.approx(1.0)

    def test_throughput_zero_before_run(self):
        cluster = BrokerCluster()
        assert cluster.throughput() == 0.0

    def test_wait_time_and_queue_depth_metrics(self):
        cluster = BrokerCluster(service_rate=10.0, batch_size=1)
        cluster.add_broker("b0")
        for _ in range(3):
            cluster.publish_at(0.0, "b0", _event("t"))
        cluster.run()
        wait = cluster.metrics.histogram("cluster.wait_time")
        assert wait.count == 3
        assert sorted(wait.samples()) == pytest.approx([0.0, 0.1, 0.2])
        assert cluster.metrics.gauge("cluster.queue_depth.b0").value == 0.0
