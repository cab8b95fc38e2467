"""Experiment C1 — cluster-layer scalability: batch size.

Sweeps the batching knob the cluster layer adds over the single-process
substrate (§5.3 workload shape):

* **raw matching throughput** — one :class:`MatchingEngine` fed fixed
  event batches through ``match_batch_cached``, wall-clock events/s per
  batch size;
* **delivery latency** — the same subscriptions behind a mailbox-driven
  :class:`BrokerCluster` broker with Poisson arrivals, reporting mean/p95
  queue delay (arrival to completion) out of simulated time.  A per-cycle
  service overhead makes the batching trade-off visible: batch=1 pays the
  overhead per event, large batches amortize it but hold early arrivals
  back until the batch completes.

* **routed delivery** (``--routed``) — a content-routed multi-broker
  cluster (line/star/tree topologies), where events forward between
  broker mailboxes as latency-bearing messages; reports hop counts,
  forwards per event and end-to-end delivery delay per (topology, batch
  size) point.

With ``verify=True`` the engine's ``match`` and ``match_batch`` are
checked against the :class:`NaiveMatchingEngine` oracle, and routed runs
compare the union of deliveries across brokers to a single-engine oracle
event by event; any mismatch raises — this is the CI guard.

Run directly (reduced scale for CI)::

    python -m repro.experiments.cluster_scale --scale 0.05 --verify --routed
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional, Sequence

from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.experiments.harness import ExperimentResult
from repro.experiments.substrate import make_event, make_subscription
from repro.obs import broker_timing_breakdown
from repro.pubsub.events import Event
from repro.pubsub.matching import BatchMatchCache, MatchingEngine, NaiveMatchingEngine
from repro.pubsub.subscriptions import Subscription
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRNG


def _matched_ids(engine, event: Event) -> List[str]:
    return [subscription.subscription_id for subscription in engine.match(event)]


def _verify_against_oracle(
    engine: MatchingEngine,
    subscriptions: Sequence[Subscription],
    events: Sequence[Event],
) -> None:
    """Pin ``engine``'s match and match_batch to the brute-force oracle;
    raises AssertionError on any mismatch."""
    oracle = NaiveMatchingEngine()
    for subscription in subscriptions:
        oracle.add(subscription)
    batch = engine.match_batch(events)
    for index, event in enumerate(events):
        expected = _matched_ids(oracle, event)
        if _matched_ids(engine, event) != expected:
            raise AssertionError(f"match diverged from oracle on event {index}")
        if [s.subscription_id for s in batch[index]] != expected:
            raise AssertionError(
                f"match_batch diverged from oracle on event {index}"
            )


def run_cluster_scale(
    batch_sizes: Sequence[int] = (1, 32, 256),
    num_subscriptions: int = 5000,
    num_events: int = 2000,
    num_topics: int = 50,
    arrival_rate: float = 1500.0,
    service_rate: float = 2500.0,
    batch_overhead: float = 0.002,
    seed: int = 13,
    scale: float = 1.0,
    verify: bool = False,
    verify_events: int = 60,
) -> ExperimentResult:
    """Throughput and delivery latency vs batch size."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    num_subscriptions = max(50, int(num_subscriptions * scale))
    num_events = max(100, int(num_events * scale))

    rng = SeededRNG(seed)
    topics = [f"topic{i:03d}" for i in range(num_topics)]
    sub_rng = rng.fork("subs")
    subscriptions = [
        make_subscription(sub_rng, topics, subscriber=f"user{index % 200}")
        for index in range(num_subscriptions)
    ]
    event_rng = rng.fork("events")
    events = [
        make_event(event_rng, topics, timestamp=float(i)) for i in range(num_events)
    ]
    arrival_rng = rng.fork("arrivals")
    arrival_times: List[float] = []
    now = 0.0
    for _ in events:
        now += arrival_rng.expovariate(arrival_rate)
        arrival_times.append(now)

    result = ExperimentResult(
        experiment_id="C1",
        title="Cluster layer: batched matching + batched event flow",
        parameters={
            "subscriptions": num_subscriptions,
            "events": num_events,
            "topics": num_topics,
            "arrival_rate": arrival_rate,
            "service_rate": service_rate,
            "batch_overhead": batch_overhead,
            "verified": verify,
        },
    )

    engine = MatchingEngine()
    engine.add_many(subscriptions)
    if verify:
        _verify_against_oracle(
            engine, subscriptions, events[: max(1, min(verify_events, num_events))]
        )
    for batch_size in batch_sizes:
        # -- wall-clock matching throughput --------------------------------
        cache = BatchMatchCache()
        start = time.perf_counter()
        deliveries = 0
        for first in range(0, num_events, batch_size):
            rows = engine.match_batch_cached(events[first : first + batch_size], cache)
            deliveries += sum(len(row) for row in rows)
        elapsed = time.perf_counter() - start

        # -- simulated delivery latency ------------------------------------
        cluster = BrokerCluster(
            sim=SimulationEngine(),
            service_rate=service_rate,
            batch_size=batch_size,
            batch_overhead=batch_overhead,
        )
        cluster.add_broker("b0")
        cluster.subscribe_many("b0", subscriptions)
        for at, event in zip(arrival_times, events):
            cluster.publish_at(at, "b0", event)
        cluster.run()
        delay = cluster.metrics.histogram("cluster.queue_delay")

        result.add_row(
            batch_size=batch_size,
            match_events_per_s=(num_events / elapsed if elapsed > 0 else 0.0),
            deliveries=deliveries,
            sim_throughput_eps=cluster.throughput(),
            mean_delay_ms=delay.mean * 1000.0,
            p95_delay_ms=delay.percentile(95) * 1000.0 if delay.count else 0.0,
        )
    result.notes.append(
        "batching amortizes per-cycle service overhead (throughput rises with "
        "batch size) at the cost of holding early arrivals until their batch "
        "completes"
    )
    if verify:
        result.notes.append(
            "verified: match/match_batch identical to the NaiveMatchingEngine "
            "oracle"
        )
    return result


def run_routed_cluster_scale(
    topologies: Sequence[str] = ("line", "star", "tree"),
    batch_sizes: Sequence[int] = (1, 32),
    num_brokers: int = 5,
    num_subscriptions: int = 4000,
    num_events: int = 1500,
    num_topics: int = 50,
    arrival_rate: float = 1500.0,
    service_rate: float = 2500.0,
    batch_overhead: float = 0.0005,
    link_latency: float = 0.002,
    seed: int = 17,
    scale: float = 1.0,
    verify: bool = False,
    publish_batch: int = 0,
) -> ExperimentResult:
    """C1b — the routed axis: topology × batch size.

    Subscriptions are spread across the brokers of a line/star/tree
    overlay, events arrive Poisson at random brokers, and deliveries flow
    through content-routed forwarding messages between broker mailboxes.
    Reported per point: hop counts (mean/max), end-to-end delivery delay
    (mean/p95, including queueing + service at each broker on the path and
    link latency), forwards per event, and simulated throughput.

    With ``publish_batch > 1`` the Poisson stream is chunked through
    ``publish_many_at``: each chunk of that many events enters one broker
    as a single mailbox entry at its last member's arrival time,
    exercising the batched data plane (batched matching, coalesced
    forwards) end to end.

    With ``verify=True`` the union of deliveries across brokers is checked
    event-by-event against a single :class:`MatchingEngine` oracle holding
    every subscription; any divergence raises ``AssertionError`` — with
    ``publish_batch`` set, this pins the batched path to the same oracle
    the per-event path is held to.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    num_subscriptions = max(50, int(num_subscriptions * scale))
    num_events = max(100, int(num_events * scale))

    result = ExperimentResult(
        experiment_id="C1b",
        title="Routed cluster: topology x batch size",
        parameters={
            "brokers": num_brokers,
            "subscriptions": num_subscriptions,
            "events": num_events,
            "topics": num_topics,
            "arrival_rate": arrival_rate,
            "service_rate": service_rate,
            "link_latency": link_latency,
            "verified": verify,
            "publish_batch": publish_batch,
        },
    )

    for topology in topologies:
        for batch_size in batch_sizes:
            rng = SeededRNG(seed)
            topics = [f"topic{i:03d}" for i in range(num_topics)]
            sub_rng = rng.fork("subs")
            subscriptions = [
                make_subscription(sub_rng, topics, subscriber=f"user{i % 200}")
                for i in range(num_subscriptions)
            ]
            event_rng = rng.fork("events")
            events = [
                make_event(event_rng, topics, timestamp=float(i))
                for i in range(num_events)
            ]

            cluster = BrokerCluster(
                sim=SimulationEngine(),
                service_rate=service_rate,
                batch_size=batch_size,
                batch_overhead=batch_overhead,
                link_latency=link_latency,
            )
            names = build_cluster_topology(topology, num_brokers, cluster)

            placement_rng = rng.fork("placement")
            for subscription in subscriptions:
                cluster.subscribe(
                    names[placement_rng.randint(0, len(names) - 1)], subscription
                )

            delivered: dict = {}
            if verify:
                cluster.on_delivery(
                    lambda broker, subscriber, event, subscription: delivered.setdefault(
                        event.event_id, []
                    ).append(subscription.subscription_id)
                )
            arrival_rng = rng.fork("arrivals")
            now = 0.0
            if publish_batch > 1:
                chunk: List[Event] = []
                for event in events:
                    now += arrival_rng.expovariate(arrival_rate)
                    chunk.append(event)
                    if len(chunk) >= publish_batch:
                        cluster.publish_many_at(
                            now,
                            names[arrival_rng.randint(0, len(names) - 1)],
                            chunk,
                        )
                        chunk = []
                if chunk:
                    cluster.publish_many_at(
                        now, names[arrival_rng.randint(0, len(names) - 1)], chunk
                    )
            else:
                for event in events:
                    now += arrival_rng.expovariate(arrival_rate)
                    cluster.publish_at(
                        now, names[arrival_rng.randint(0, len(names) - 1)], event
                    )
            cluster.run()

            if verify:
                oracle = MatchingEngine()
                for subscription in subscriptions:
                    oracle.add(subscription)
                for index, event in enumerate(events):
                    expected = sorted(
                        s.subscription_id for s in oracle.match(event)
                    )
                    got = sorted(delivered.get(event.event_id, []))
                    if got != expected:
                        raise AssertionError(
                            f"routed delivery diverged from oracle on event "
                            f"{index} (topology={topology}, batch={batch_size})"
                        )

            hops = cluster.metrics.histogram("cluster.delivery_hops")
            e2e = cluster.metrics.histogram("cluster.e2e_delay")
            forwarded = cluster.metrics.counter("cluster.events_forwarded").value
            result.add_row(
                topology=topology,
                batch_size=batch_size,
                deliveries=cluster.metrics.counter("cluster.deliveries").value,
                mean_hops=hops.mean,
                max_hops=hops.maximum if hops.count else 0.0,
                forwards_per_event=forwarded / num_events,
                mean_e2e_delay_ms=e2e.mean * 1000.0,
                p95_e2e_delay_ms=e2e.percentile(95) * 1000.0 if e2e.count else 0.0,
                sim_throughput_eps=cluster.throughput(),
            )
        result.add_table(
            f"broker timing — {topology} (last point)",
            broker_timing_breakdown(cluster),
        )
    result.attach_metrics(cluster.metrics, prefixes=("cluster.", "overlay."))
    result.notes.append(
        "subscriptions spread uniformly across brokers; events enter at random "
        "brokers and are forwarded hop by hop through broker mailboxes with "
        "per-link latency, so end-to-end delay compounds queueing, service and "
        "link time along the path; star topologies bound hop count at 2 while "
        "lines pay the full diameter"
    )
    if verify:
        result.notes.append(
            "verified: the union of routed deliveries equals the single-engine "
            "oracle match set for every event"
        )
    return result


def run_wire_cluster_scale(
    topologies: Sequence[str] = ("line", "star", "tree"),
    num_brokers: int = 3,
    num_subscriptions: int = 400,
    num_events: int = 600,
    num_topics: int = 50,
    publish_batch: int = 32,
    seed: int = 19,
    scale: float = 1.0,
    verify: bool = False,
) -> ExperimentResult:
    """C1c — the wire axis: real broker processes over localhost TCP.

    Unlike C1/C1b, nothing here runs on the simulated clock: each topology
    is materialized as one OS process per broker
    (:class:`~repro.net.launcher.WireCluster`), subscriptions are placed
    through the async client SDK, advert flooding is awaited via the
    convergence invariant, and the event stream is published in ack-paced
    ``publish_many`` batches.  Throughput and end-to-end latency (publish
    stamp → subscriber receive, same host so one clock) are *measured*
    wall-clock numbers.

    Each point also replays the identical workload through the sim-clock
    :class:`BrokerCluster` twin on the same topology: the sim-modeled
    e2e delay lands in the same row for comparison, and with
    ``verify=True`` the two delivery sets must be identical (the wire ==
    sim oracle; any divergence raises ``AssertionError``).
    """
    import asyncio

    from repro.net.driver import run_wire_workload
    from repro.net.launcher import WireCluster, topology_specs
    from repro.sim.metrics import Histogram

    if scale <= 0:
        raise ValueError("scale must be positive")
    num_subscriptions = max(20, int(num_subscriptions * scale))
    num_events = max(50, int(num_events * scale))

    result = ExperimentResult(
        experiment_id="C1c",
        title="Wire transport: process-per-broker topologies over TCP",
        parameters={
            "brokers": num_brokers,
            "subscriptions": num_subscriptions,
            "events": num_events,
            "topics": num_topics,
            "publish_batch": publish_batch,
            "verified": verify,
        },
    )

    for topology in topologies:
        rng = SeededRNG(seed)
        topics = [f"topic{i:03d}" for i in range(num_topics)]
        sub_rng = rng.fork("subs")
        placements = [
            (
                f"b{index % num_brokers}",
                make_subscription(sub_rng, topics, subscriber=f"user{index % 200}"),
            )
            for index in range(num_subscriptions)
        ]
        event_rng = rng.fork("events")
        events = [
            make_event(event_rng, topics, timestamp=float(i))
            for i in range(num_events)
        ]

        with WireCluster(topology_specs(topology, num_brokers)) as wire_cluster:
            run = asyncio.run(
                run_wire_workload(
                    wire_cluster,
                    placements,
                    events,
                    publish_broker="b0",
                    batch_size=max(1, publish_batch),
                )
            )
        if not run.complete:
            raise AssertionError(
                f"wire run incomplete on {topology}: "
                f"{len(run.delivery_set)}/{run.expected} deliveries"
            )

        # The deterministic twin: same workload, same topology, sim clock.
        sim_cluster = BrokerCluster(sim=SimulationEngine())
        names = build_cluster_topology(topology, num_brokers, sim_cluster)
        sim_pairs = set()
        sim_cluster.on_delivery_batch(
            lambda _broker, event, row: sim_pairs.update(
                (event.event_id, s.subscription_id) for s in row
            )
        )
        for broker_name, subscription in placements:
            sim_cluster.subscribe(broker_name, subscription)
        for event in events:
            sim_cluster.publish("b0", event)
        sim_cluster.run()
        if verify and sim_pairs != run.delivery_set:
            raise AssertionError(
                f"wire != sim delivery on {topology}: "
                f"sim-only={len(sim_pairs - run.delivery_set)} "
                f"wire-only={len(run.delivery_set - sim_pairs)}"
            )

        latency = Histogram(f"wire.e2e.{topology}")
        for sample in run.latencies():
            latency.observe(sample)
        sim_e2e = sim_cluster.metrics.histogram("cluster.e2e_delay")
        result.add_row(
            topology=topology,
            brokers=num_brokers,
            deliveries=len(run.deliveries),
            delivery_pairs=len(run.delivery_set),
            wire_events_per_s=(
                num_events / run.publish_duration if run.publish_duration else 0.0
            ),
            wire_deliveries_per_s=(
                len(run.delivery_set) / run.duration if run.duration else 0.0
            ),
            wire_p50_e2e_ms=(
                latency.percentile(50) * 1000.0 if latency.count else 0.0
            ),
            wire_p99_e2e_ms=(
                latency.percentile(99) * 1000.0 if latency.count else 0.0
            ),
            sim_modeled_mean_e2e_ms=sim_e2e.mean * 1000.0,
            sim_modeled_p95_e2e_ms=(
                sim_e2e.percentile(95) * 1000.0 if sim_e2e.count else 0.0
            ),
            wire_matches_sim=sim_pairs == run.delivery_set,
        )
    result.notes.append(
        "wire numbers are measured wall-clock (real processes, real TCP, "
        "ack-paced publishing); sim columns are the deterministic twin's "
        "modeled delays on the identical workload — the sim models link "
        "latency in milliseconds while localhost TCP delivers in tens to "
        "hundreds of microseconds, so absolute values differ by design"
    )
    if verify:
        result.notes.append(
            "verified: wire delivery set identical to the sim-clock twin "
            "for every topology (the wire == sim oracle)"
        )
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Cluster-layer sweep: batch size")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor (CI smoke uses 0.05)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="check matching results against the naive oracle (exit 1 on mismatch)",
    )
    parser.add_argument(
        "--routed",
        action="store_true",
        help="also run the routed sweep (topology x batch size)",
    )
    parser.add_argument(
        "--publish-batch",
        type=int,
        default=0,
        help="chunk the routed sweep's event stream through publish_many "
        "in batches of this size (0/1 = per-event publish)",
    )
    parser.add_argument(
        "--wire",
        action="store_true",
        help="also run the wire sweep: real broker processes over localhost "
        "TCP, reporting measured throughput and e2e latency (with --verify, "
        "the delivery set is pinned to the sim-clock twin)",
    )
    parser.add_argument(
        "--wire-brokers",
        type=int,
        default=3,
        help="broker process count for the --wire sweep",
    )
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)
    try:
        result = run_cluster_scale(scale=args.scale, verify=args.verify, seed=args.seed)
        print(result.summary())
        if args.routed:
            routed = run_routed_cluster_scale(
                scale=args.scale,
                verify=args.verify,
                seed=args.seed,
                publish_batch=args.publish_batch,
            )
            print(routed.summary())
        if args.wire:
            wired = run_wire_cluster_scale(
                scale=args.scale,
                verify=args.verify,
                seed=args.seed,
                num_brokers=args.wire_brokers,
            )
            print(wired.summary())
    except AssertionError as error:
        print(f"ORACLE MISMATCH: {error}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
