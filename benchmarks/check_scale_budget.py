#!/usr/bin/env python
"""Reduced-scale memory/latency budget check for the scale machinery.

CI smoke for the million-subscription engine (PR 6) at a scale a shared
runner can afford: build ``--subs`` subscriptions through ``add_many``,
enforce a hard RSS ceiling on the resident population, check match and
churn latency budgets, then run the batch-vs-loop advertisement check on
the bench topology (a ``--brokers``-node line) and enforce a minimum
batch speedup, and finally the batched-vs-sequential routed publish
check (PR 8) with a minimum data-plane throughput speedup.  Exits
non-zero on any violated budget, so the CI job fails loudly instead of
letting scale regressions rot.

Usage::

    python benchmarks/check_scale_budget.py --subs 100000 --max-rss-mb 500
    python benchmarks/check_scale_budget.py --record budget.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro.cluster.routing import RoutingFabric  # noqa: E402
from repro.experiments.substrate import make_subscription  # noqa: E402
from repro.pubsub.broker import Broker  # noqa: E402
from repro.pubsub.events import Event  # noqa: E402
from repro.pubsub.matching import MatchingEngine  # noqa: E402
from repro.pubsub.subscriptions import predicate_pool  # noqa: E402
from repro.sim.rng import SeededRNG  # noqa: E402


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_engine_budget(subs: int, results: dict) -> None:
    """Resident-population build: RSS, match and churn latency."""
    topics = [f"topic{i:02d}" for i in range(50)]
    rng = SeededRNG(71)
    subscriptions = [
        make_subscription(rng, topics, f"user{i % 200:03d}") for i in range(subs)
    ]
    engine = MatchingEngine()
    start = time.perf_counter()
    engine.add_many(subscriptions)
    build_s = time.perf_counter() - start
    assert len(engine) == subs

    event = Event(
        event_type="news.story", attributes={"topic": topics[7], "priority": 3}
    )
    start = time.perf_counter()
    rounds = 50
    for _ in range(rounds):
        matched = engine.match(event)
    match_ms = (time.perf_counter() - start) / rounds * 1e3
    assert matched

    churn = [make_subscription(rng, topics, f"churn{i % 50:02d}") for i in range(2_000)]
    start = time.perf_counter()
    for subscription in churn:
        engine.add(subscription)
    subscribe_us = (time.perf_counter() - start) / len(churn) * 1e6
    start = time.perf_counter()
    for subscription in churn:
        engine.remove(subscription.subscription_id)
    unsubscribe_us = (time.perf_counter() - start) / len(churn) * 1e6

    stats = engine.column_stats()
    results["engine"] = {
        "subscriptions": subs,
        "build_s": round(build_s, 3),
        "rss_mb": round(rss_mb(), 1),
        "match_ms": round(match_ms, 3),
        "subscribe_us": round(subscribe_us, 3),
        "unsubscribe_us": round(unsubscribe_us, 3),
        "distinct_shapes": stats["distinct_shapes"],
        "index": {
            name: stats[name]
            for name in ("anchored", "counting", "anchor_buckets", "largest_anchor_bucket")
        },
        "pool": predicate_pool().stats(),
    }


def check_batch_budget(subs: int, brokers: int, results: dict) -> None:
    """Batch-vs-loop advertisement on the bench topology (line)."""

    def build_fabric() -> RoutingFabric:
        fabric = RoutingFabric()
        for index in range(brokers):
            fabric.add_node(f"b{index}", Broker(f"b{index}"))
        for index in range(brokers - 1):
            fabric.connect(f"b{index}", f"b{index + 1}")
        return fabric

    topics = [f"topic{i:02d}" for i in range(50)]
    rng = SeededRNG(37)
    subscriptions = [
        make_subscription(rng, topics, f"solo{i:06d}") for i in range(subs)
    ]

    # The loop fabric's routing state is millions of container objects;
    # release it (and collect) before timing the batch so cyclic-GC
    # passes over the dead heap do not get billed to the batch.
    loop_fabric = build_fabric()
    gc.collect()
    start = time.perf_counter()
    for subscription in subscriptions:
        loop_fabric.subscribe_at("b0", subscription)
    loop_s = time.perf_counter() - start
    loop_state = loop_fabric.total_routing_state()
    del loop_fabric
    gc.collect()

    batch_fabric = build_fabric()
    start = time.perf_counter()
    batch_fabric.subscribe_many_at("b0", subscriptions)
    batch_s = time.perf_counter() - start
    assert batch_fabric.total_routing_state() == loop_state

    results["batch"] = {
        "subscriptions": subs,
        "brokers": brokers,
        "loop_s": round(loop_s, 3),
        "batch_s": round(batch_s, 3),
        "speedup": round(loop_s / batch_s, 2) if batch_s else None,
    }


def check_publish_budget(events: int, results: dict) -> None:
    """Batched-vs-sequential routed publish on the bench line (PR 8).

    A reduced copy of ``bench_hotpaths.test_hp_routed_publish_many``:
    the sequential pass publishes each event at a distinct sim time (one
    service cycle and one forward message per event), the batched pass
    feeds the same events through ``publish_many`` in 512-event batches.
    Delivery counts must agree; the throughput ratio is budgeted.
    """
    from repro.cluster.broker_cluster import (  # noqa: E402
        BrokerCluster,
        build_cluster_topology,
    )
    from repro.experiments.substrate import make_event  # noqa: E402

    topics = [f"topic{i:03d}" for i in range(1_000)]
    rng = SeededRNG(23)
    subscriptions = [
        make_subscription(rng, topics, f"user{i % 200}") for i in range(6_000)
    ]
    events_list = [make_event(rng, topics, timestamp=float(i)) for i in range(events)]
    cluster = BrokerCluster(service_rate=1e9, batch_size=64, link_latency=0.001)
    names = build_cluster_topology("line", 3, cluster)
    placement = SeededRNG(41)
    for subscription in subscriptions:
        cluster.subscribe(names[placement.randint(0, 2)], subscription)
    delivered = cluster.metrics.counter("cluster.deliveries")

    base = cluster.sim.now
    gc.collect()
    start = time.perf_counter()
    for index, event in enumerate(events_list):
        cluster.publish_at(base + index * 1e-5, names[index % 3], event)
    cluster.run()
    sequential_s = time.perf_counter() - start
    sequential_deliveries = delivered.value

    gc.collect()
    start = time.perf_counter()
    for index, chunk_start in enumerate(range(0, len(events_list), 512)):
        cluster.publish_many(
            names[index % 3], events_list[chunk_start : chunk_start + 512]
        )
    cluster.run()
    batched_s = time.perf_counter() - start
    assert delivered.value - sequential_deliveries == sequential_deliveries

    results["publish"] = {
        "events": events,
        "sequential_s": round(sequential_s, 3),
        "batched_s": round(batched_s, 3),
        "sequential_us_per_event": round(sequential_s / events * 1e6, 2),
        "batched_us_per_event": round(batched_s / events * 1e6, 2),
        "speedup": round(sequential_s / batched_s, 2) if batched_s else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--subs", type=int, default=100_000,
                        help="resident population for the engine check")
    parser.add_argument("--batch-subs", type=int, default=None,
                        help="batch-vs-loop population (default: --subs)")
    parser.add_argument("--brokers", type=int, default=48,
                        help="line length for the batch check (bench topology)")
    parser.add_argument("--max-rss-mb", type=float, default=500.0,
                        help="hard ceiling on resident memory after the build")
    parser.add_argument("--max-match-ms", type=float, default=250.0,
                        help="ceiling on single-event match latency")
    parser.add_argument("--max-subscribe-us", type=float, default=250.0,
                        help="ceiling on per-subscription churn-in latency")
    parser.add_argument("--min-batch-speedup", type=float, default=3.0,
                        help="floor on the batch-vs-loop speedup "
                        "(the full-scale target is 5x; CI keeps noise margin)")
    parser.add_argument("--publish-events", type=int, default=10_000,
                        help="event count for the batched-publish check")
    parser.add_argument("--min-publish-speedup", type=float, default=2.0,
                        help="floor on the batched-vs-sequential routed publish "
                        "speedup (the bench target is 3x; CI keeps noise margin)")
    parser.add_argument("--record", help="write the measurements to this JSON file")
    args = parser.parse_args()

    results: dict = {}
    check_engine_budget(args.subs, results)
    check_batch_budget(
        args.batch_subs if args.batch_subs is not None else args.subs,
        args.brokers,
        results,
    )
    check_publish_budget(args.publish_events, results)

    budgets = [
        ("engine rss_mb", results["engine"]["rss_mb"], "<=", args.max_rss_mb),
        ("engine match_ms", results["engine"]["match_ms"], "<=", args.max_match_ms),
        ("engine subscribe_us", results["engine"]["subscribe_us"], "<=",
         args.max_subscribe_us),
        ("batch speedup", results["batch"]["speedup"], ">=", args.min_batch_speedup),
        ("publish speedup", results["publish"]["speedup"], ">=",
         args.min_publish_speedup),
    ]
    # Where the population sits: match cost follows the anchor bucket an
    # event selects, so a skewed access predicate shows here first.
    print("engine index: " + ", ".join(
        f"{name}={value}" for name, value in results["engine"]["index"].items()
    ))
    failures = []
    for name, value, op, limit in budgets:
        ok = value <= limit if op == "<=" else value >= limit
        print(f"{'PASS' if ok else 'FAIL'}  {name} = {value} (budget {op} {limit})")
        if not ok:
            failures.append(name)

    if args.record:
        with open(args.record, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded measurements to {args.record}")

    if failures:
        print(f"budget violations: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
