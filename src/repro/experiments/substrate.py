"""Experiment X3 — publish-subscribe substrate scalability (§5.3).

The paper leans on substrates such as Siena, SCRIBE and Cayuga for
"efficient event dissemination" with a scalability/expressiveness
trade-off.  Two micro-experiments characterize the substrates implemented
here:

* matching throughput of the counting-based engine as the number of active
  subscriptions grows;
* delivery cost in a broker tree (brokers visited per publication)
  under content-based routing versus flooding, and the same publication
  workload on the SCRIBE-style topic substrate.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.cluster.broker_cluster import BrokerCluster
from repro.experiments.harness import ExperimentResult
from repro.pubsub.dht import PastryOverlay
from repro.pubsub.events import Event
from repro.pubsub.matching import MatchingEngine
from repro.pubsub.subscriptions import Operator, Predicate, Subscription
from repro.pubsub.topics import ScribeSystem
from repro.sim.rng import SeededRNG


def make_subscription(rng: SeededRNG, topics: Sequence[str], subscriber: str) -> Subscription:
    """One §5.3-shaped subscription: topic equality, 30% add a priority bound.

    Public workload generator shared by the substrate and cluster
    experiments and the hot-path benchmarks.
    """
    topic = rng.choice(list(topics))
    predicates = [Predicate("topic", Operator.EQ, topic)]
    if rng.random() < 0.3:
        predicates.append(Predicate("priority", Operator.GE, rng.randint(1, 5)))
    return Subscription(event_type="news.story", predicates=tuple(predicates), subscriber=subscriber)


def make_event(rng: SeededRNG, topics: Sequence[str], timestamp: float) -> Event:
    """One §5.3-shaped news event (topic, priority, source)."""
    return Event(
        event_type="news.story",
        attributes={
            "topic": rng.choice(list(topics)),
            "priority": rng.randint(1, 10),
            "source": rng.choice(["ABC", "CNN", "BBC"]),
        },
        timestamp=timestamp,
    )


# Backwards-compatible aliases (pre-PR 2 name).
_make_subscription = make_subscription
_make_event = make_event


def run_matching_scalability(
    subscription_counts: Sequence[int] = (100, 1000, 5000, 20000),
    events_per_point: int = 2000,
    num_topics: int = 50,
    seed: int = 7,
) -> ExperimentResult:
    """Matching throughput (events/second) vs number of subscriptions."""
    rng = SeededRNG(seed)
    topics = [f"topic{i:03d}" for i in range(num_topics)]
    result = ExperimentResult(
        experiment_id="X3a",
        title="Counting-engine matching throughput vs subscription count",
        parameters={"events_per_point": events_per_point, "topics": num_topics},
    )
    for count in subscription_counts:
        engine = MatchingEngine()
        sub_rng = rng.fork(f"subs:{count}")
        for index in range(count):
            engine.add(_make_subscription(sub_rng, topics, subscriber=f"user{index % 100}"))
        event_rng = rng.fork(f"events:{count}")
        events = [_make_event(event_rng, topics, float(i)) for i in range(events_per_point)]
        start = time.perf_counter()
        matches = 0
        for event in events:
            matches += engine.match_count(event)
        elapsed = time.perf_counter() - start
        result.add_row(
            subscriptions=count,
            events=events_per_point,
            seconds=elapsed,
            events_per_second=events_per_point / elapsed if elapsed > 0 else 0.0,
            matches_per_event=matches / events_per_point,
        )
    result.notes.append(
        "equality predicates are hash-indexed, so throughput degrades sub-linearly "
        "in the number of subscriptions"
    )
    return result


def run_routing_scalability(
    depth: int = 4,
    fanout: int = 3,
    subscribers: int = 60,
    publications: int = 300,
    num_topics: int = 20,
    seed: int = 11,
) -> ExperimentResult:
    """Delivery cost: content-based routing vs flooding vs SCRIBE multicast."""
    rng = SeededRNG(seed)
    topics = [f"topic{i:03d}" for i in range(num_topics)]

    # --- content-based broker tree ---------------------------------------
    # A zero-latency sim cluster: served events are forwarded only toward
    # interested neighbours, so every broker that serves an event is one
    # "visited" in the paper's sense.
    cluster = BrokerCluster(link_latency=0.0)
    cluster.add_broker("t0")
    frontier = ["t0"]
    for _ in range(depth - 1):
        next_frontier = []
        for parent in frontier:
            for _ in range(fanout):
                name = f"t{len(cluster.brokers)}"
                cluster.add_broker(name)
                cluster.connect(parent, name)
                next_frontier.append(name)
        frontier = next_frontier
    broker_names = sorted(cluster.brokers)
    sub_rng = rng.fork("subs")
    subscriptions = []
    for index in range(subscribers):
        client = f"client{index}"
        home = sub_rng.choice(broker_names)
        subscription = _make_subscription(sub_rng, topics, client)
        cluster.subscribe(home, subscription)
        subscriptions.append(subscription)

    event_rng = rng.fork("events")
    events = [_make_event(event_rng, topics, float(i)) for i in range(publications)]

    for event in events:
        cluster.publish(broker_names[0], event)
    cluster.run()
    routed_visits = int(cluster.metrics.counter("cluster.events_processed").value)
    routed_deliveries = int(cluster.metrics.counter("cluster.deliveries").value)

    # Flooding visits every broker of the connected tree once per event and
    # delivers every matching subscription.
    flooded_visits = len(broker_names) * publications
    flooded_deliveries = sum(
        1 for event in events for subscription in subscriptions if subscription.matches(event)
    )

    # --- SCRIBE topic multicast ----------------------------------------------
    pastry = PastryOverlay()
    for index in range(len(broker_names)):
        pastry.join(f"node{index:03d}")
    scribe = ScribeSystem(pastry)
    scribe_rng = rng.fork("scribe")
    node_names = [node.name for node in pastry.nodes()]
    for index in range(subscribers):
        scribe.subscribe(
            f"client{index}", scribe_rng.choice(node_names), scribe_rng.choice(topics)
        )
    scribe_deliveries = 0
    for event in events:
        topic = str(event.get("topic"))
        scribe_deliveries += scribe.publish(scribe_rng.choice(node_names), topic, event)
    scribe_messages = scribe.metrics.counter("scribe.messages").value

    result = ExperimentResult(
        experiment_id="X3b",
        title="Event dissemination cost: content-based routing vs flooding vs SCRIBE",
        parameters={
            "brokers": len(broker_names),
            "subscribers": subscribers,
            "publications": publications,
            "topics": num_topics,
        },
    )
    result.add_row(
        substrate="content-based routing",
        brokers_visited_per_event=routed_visits / publications,
        deliveries=routed_deliveries,
        messages=float(routed_visits),
    )
    result.add_row(
        substrate="flooding baseline",
        brokers_visited_per_event=flooded_visits / publications,
        deliveries=flooded_deliveries,
        messages=float(flooded_visits),
    )
    result.add_row(
        substrate="scribe topic multicast",
        brokers_visited_per_event=scribe_messages / publications,
        deliveries=scribe_deliveries,
        messages=scribe_messages,
    )
    result.notes.append(
        "content-based routing delivers the same events as flooding while visiting "
        "fewer brokers; SCRIBE's per-topic trees bound multicast cost for topic workloads"
    )
    return result
