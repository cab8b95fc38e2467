#!/usr/bin/env python3
"""Routed broker cluster: the distributed message plane end to end.

Builds a 3-broker routed cluster (line topology: west - hub - east),
attaches subscribers at different brokers, publishes a batch of events at
the west edge, and prints what the message plane measured:

* who received what (deliveries carry the serving broker);
* how many overlay links each delivery crossed (hop counts);
* end-to-end delivery delay — queueing + service at every broker on the
  path plus simulated link latency;
* per-broker mailbox/forwarding statistics and network traffic.

Run with:  python examples/routed_cluster.py
"""

from __future__ import annotations

from repro.cluster import BrokerCluster
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Operator, Predicate, Subscription
from repro.sim.rng import SeededRNG


def subscription(topic: str, subscriber: str, min_priority: int = 0) -> Subscription:
    predicates = [Predicate("topic", Operator.EQ, topic)]
    if min_priority:
        predicates.append(Predicate("priority", Operator.GE, min_priority))
    return Subscription(
        event_type="news.story", predicates=tuple(predicates), subscriber=subscriber
    )


def main() -> None:
    cluster = BrokerCluster(
        service_rate=2000.0,  # events/second per broker
        batch_size=8,
        batch_overhead=0.0002,
        link_latency=0.005,  # 5 ms per overlay link
    )
    for name in ("west", "hub", "east"):
        cluster.add_broker(name)
    cluster.connect("west", "hub")
    cluster.connect("hub", "east")

    # Subscribers live at different brokers; routes propagate automatically.
    cluster.subscribe("west", subscription("politics", "wendy"))
    cluster.subscribe("hub", subscription("sports", "harry"))
    cluster.subscribe("east", subscription("sports", "erin"))
    cluster.subscribe("east", subscription("politics", "ed", min_priority=5))

    deliveries = []
    cluster.on_delivery(
        lambda broker, subscriber, event, sub: deliveries.append(
            (broker, subscriber, event.get("topic"), event.get("priority"))
        )
    )

    # A burst of events published at the west edge of the line.
    rng = SeededRNG(7)
    topics = ["politics", "sports", "weather"]
    at = 0.0
    for index in range(60):
        at += rng.expovariate(800.0)
        cluster.publish_at(
            at,
            "west",
            Event(
                event_type="news.story",
                attributes={
                    "topic": rng.choice(topics),
                    "priority": rng.randint(1, 10),
                },
                timestamp=at,
            ),
        )
    cluster.run()

    print("=== deliveries (broker, subscriber, topic, priority) ===")
    for broker, subscriber, topic, priority in deliveries[:10]:
        print(f"  {broker:>5} -> {subscriber:<6} {topic:<9} p{priority}")
    print(f"  ... {len(deliveries)} deliveries total")

    hops = cluster.metrics.histogram("cluster.delivery_hops")
    e2e = cluster.metrics.histogram("cluster.e2e_delay")
    print("\n=== message plane ===")
    print(f"  events forwarded over links : {cluster.metrics.counter('cluster.events_forwarded').value:.0f}")
    print(f"  hops per delivery           : mean {hops.mean:.2f}, max {hops.maximum:.0f}")
    print(f"  end-to-end delivery delay   : mean {e2e.mean * 1000:.2f} ms, p95 {e2e.percentile(95) * 1000:.2f} ms")
    print(f"  network messages / bytes    : {cluster.network.messages_sent} / {cluster.network.bytes_sent}")

    print("\n=== per-broker stats ===")
    for name, stats in cluster.stats_by_broker().items():
        print(
            f"  {name:>5}: enqueued={stats['events_enqueued']:.0f} "
            f"processed={stats['events_processed']:.0f} "
            f"delivered={stats['deliveries']:.0f} "
            f"forwarded={stats['events_forwarded']:.0f} "
            f"forwards_in={stats['forwards_received']:.0f}"
        )
    print(f"\nrouting state (remote subscriptions): {cluster.total_routing_state()}")
    print(f"simulated time: {cluster.sim.now * 1000:.2f} ms")


if __name__ == "__main__":
    main()
