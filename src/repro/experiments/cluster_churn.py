"""Experiment C2 — broker crash/recovery and link churn under load.

The routed cluster of C1b assumed an immortal fabric.  C2 measures what
the paper's "millions of users" substrate actually has to survive:
brokers crash mid-flight and restart, links flap, and the routing state
must heal itself through the heartbeat failure detector
(:mod:`repro.cluster.recovery`) while publications keep arriving.

Per (topology × crash rate × recovery delay) point the sweep drives a
Poisson publication stream through a line/star/tree overlay while a
seeded :class:`~repro.cluster.faults.FaultPlan` kills and restarts
brokers (and optionally flaps links), and reports:

* delivered / lost / duplicated event-deliveries against a single-engine
  oracle holding every subscription (losses decompose into publishes to
  dead brokers, frozen-or-dropped mailboxes, in-service batches, and
  events forwarded into the void before detection);
* unavailability — summed broker downtime and the mean outage window;
* detector behaviour — suspicions, false suspicions, link restores;
* routing-state convergence: time from the last recovery to the last
  link restore, and whether the fabric converged to exactly the state a
  freshly built topology would hold (the
  :func:`~repro.cluster.recovery.routing_converged` oracle).

With ``verify=True`` every point additionally (a) asserts zero stale
routes after the final heal (live fabric snapshot == rebuilt-from-scratch
snapshot) and (b) publishes a second wave of events after convergence and
asserts its delivery sets equal the oracle *exactly* — no losses, no
duplicates.  Any violation raises; this is the CI guard.

Run directly (reduced scale for CI)::

    python -m repro.experiments.cluster_churn --scale 0.05 --verify
"""

from __future__ import annotations

import argparse
import json
from collections import Counter as TallyCounter
from typing import Dict, List, Optional, Sequence

from repro.cluster.broker_cluster import (
    MAILBOX_POLICIES,
    BrokerCluster,
    build_cluster_topology,
    topology_is_cyclic,
)
from repro.cluster.durable import DurabilityManager
from repro.cluster.faults import FaultInjector, FaultPlan
from repro.cluster.recovery import FailureDetector, routing_converged
from repro.cluster.replication import ReplicationManager
from repro.experiments.harness import ExperimentResult
from repro.experiments.substrate import make_event, make_subscription
from repro.obs import Tracer, attribute_losses, broker_timing_breakdown, spans_payload
from repro.pubsub.events import Event
from repro.pubsub.matching import MatchingEngine
from repro.pubsub.subscriptions import Subscription
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRNG


def _oracle_expectations(
    subscriptions: Sequence[Subscription], events: Sequence[Event]
) -> Dict[str, List[str]]:
    oracle = MatchingEngine()
    for subscription in subscriptions:
        oracle.add(subscription)
    return {
        event.event_id: sorted(s.subscription_id for s in oracle.match(event))
        for event in events
    }


def _loss_and_duplication(
    expected: Dict[str, List[str]], delivered: Dict[str, List[str]]
) -> Dict[str, int]:
    """Compare delivered (with multiplicity) against oracle expectations."""
    lost = 0
    duplicated = 0
    total_expected = 0
    for event_id, wanted in expected.items():
        total_expected += len(wanted)
        got = TallyCounter(delivered.get(event_id, ()))
        for subscription_id in wanted:
            count = got.pop(subscription_id, 0)
            if count == 0:
                lost += 1
            elif count > 1:
                duplicated += count - 1
        # Deliveries the oracle never predicted (should not happen) count
        # as duplicates too: they are extra traffic the client sees.
        duplicated += sum(got.values())
    return {"expected": total_expected, "lost": lost, "duplicated": duplicated}


def run_cluster_churn(
    topologies: Sequence[str] = ("line", "star", "tree"),
    crash_rates: Sequence[float] = (0.25, 0.75),
    recovery_delays: Sequence[float] = (0.3, 0.9),
    num_brokers: int = 5,
    num_subscriptions: int = 2000,
    num_events: int = 1500,
    num_topics: int = 40,
    churn_duration: float = 6.0,
    service_rate: float = 4000.0,
    batch_size: int = 4,
    link_latency: float = 0.002,
    heartbeat_period: float = 0.02,
    detect_timeout: float = 0.08,
    link_flap_rate: float = 0.0,
    link_down_time: float = 0.25,
    mailbox_policy: str = "freeze",
    seed: int = 29,
    scale: float = 1.0,
    verify: bool = False,
    cross_check_repairs: bool = False,
    trace: bool = False,
    trace_dump: Optional[str] = None,
    publish_batch: int = 0,
    replicate: int = 0,
    replay: bool = False,
) -> ExperimentResult:
    """Sweep crash rate × recovery delay × topology under churn.

    With ``cross_check_repairs`` every fabric mutation (subscription
    placement, link failover delta repair, failback merge) is
    cross-checked against the retained full-rebuild path
    (:meth:`RoutingFabric.rebuilt_snapshot`) — any snapshot divergence
    raises immediately, naming the operation.  This is the control-plane
    oracle CI arms; it is far stricter (and slower) than ``verify``,
    which only checks the final healed state per point.

    ``trace`` arms a full-sampling :class:`~repro.obs.trace.Tracer` on
    every point and cross-checks the span record against the delivery
    oracle (:func:`~repro.obs.loss.attribute_losses`): every lost event
    must terminate in a drop span naming its cause, and every delivered
    traced event must show a complete publish→deliver chain.  Any
    unattributed loss raises — this is the trace-oracle CI gate.
    ``trace_dump`` additionally writes the per-point span record as JSON
    (the CI build artifact).

    ``publish_batch > 1`` chunks the publication stream (and the
    post-recovery verify wave) through ``publish_many_at``, driving the
    batched data plane — batched mailbox entries, coalesced
    ``event.forward_batch`` messages, batch crash-loss accounting —
    through the same churn, oracles and trace-attribution gates the
    per-event path is held to.

    Cyclic topologies (``ring``/``mesh`` in ``topologies``) run on a
    cycle-tolerant fabric with per-event dedup; redundant paths keep
    deliveries flowing through single link/broker losses.  ``replicate``
    homes every subscription on a primary plus that many replicas
    (:class:`~repro.cluster.replication.ReplicationManager`) so crash
    detection fails deliveries over to a live replica instead of
    dropping them.  ``replay`` attaches a
    :class:`~repro.cluster.durable.DurabilityManager` — ingress
    publications are logged, publishes to down brokers deferred, and
    after the churn horizon the whole log is replayed with
    subscriber-side dedup; combined with ``verify`` the tally must then
    be **exactly-once** (zero lost AND zero duplicated) or the run
    raises.  This is the durability CI oracle.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    num_subscriptions = max(50, int(num_subscriptions * scale))
    num_events = max(100, int(num_events * scale))
    arrival_rate = num_events / churn_duration

    result = ExperimentResult(
        experiment_id="C2",
        title="Cluster churn: broker crash/recovery + link flap under load",
        parameters={
            "brokers": num_brokers,
            "subscriptions": num_subscriptions,
            "events": num_events,
            "churn_duration": churn_duration,
            "service_rate": service_rate,
            "heartbeat_period": heartbeat_period,
            "detect_timeout": detect_timeout,
            "link_flap_rate": link_flap_rate,
            "mailbox_policy": mailbox_policy,
            "verified": verify,
            "cross_checked_repairs": cross_check_repairs,
            "traced": trace,
            "publish_batch": publish_batch,
            "replicate": replicate,
            "replay": replay,
        },
    )
    dump_points: List[Dict[str, object]] = []

    # The workload and its oracle are functions of (seed, sizes) only —
    # per-point randomness (placement, faults, arrivals) comes from
    # independent label forks — so generate and match them exactly once.
    workload_rng = SeededRNG(seed)
    topics = [f"topic{i:03d}" for i in range(num_topics)]
    sub_rng = workload_rng.fork("subs")
    subscriptions = [
        make_subscription(sub_rng, topics, subscriber=f"user{i % 200}")
        for i in range(num_subscriptions)
    ]
    event_rng = workload_rng.fork("events")
    events = [
        make_event(event_rng, topics, timestamp=float(i)) for i in range(num_events)
    ]
    expected = _oracle_expectations(subscriptions, events)

    for topology in topologies:
        for crash_rate in crash_rates:
            for recovery_delay in recovery_delays:
                rng = SeededRNG(seed)
                tracer = Tracer(sample_every=1) if trace else None
                cluster = BrokerCluster(
                    sim=SimulationEngine(),
                    service_rate=service_rate,
                    batch_size=batch_size,
                    link_latency=link_latency,
                    mailbox_policy=mailbox_policy,
                    tracer=tracer,
                    allow_cycles=topology_is_cyclic(topology),
                )
                names = build_cluster_topology(topology, num_brokers, cluster)
                cluster.fabric.verify_repairs = cross_check_repairs
                durability = DurabilityManager(cluster) if replay else None
                replication = (
                    ReplicationManager(cluster, replication_factor=replicate)
                    if replicate > 0
                    else None
                )
                placement_rng = rng.fork("placement")
                for subscription in subscriptions:
                    home = names[placement_rng.randint(0, len(names) - 1)]
                    if replication is not None:
                        replication.subscribe(home, subscription)
                    else:
                        cluster.subscribe(home, subscription)

                detector = FailureDetector(
                    cluster, period=heartbeat_period, timeout=detect_timeout
                )
                plan = FaultPlan.random_churn(
                    names,
                    rng.fork("faults"),
                    start=0.08 * churn_duration,
                    end=0.75 * churn_duration,
                    crash_rate=crash_rate,
                    recovery_delay=recovery_delay,
                    links=cluster.fabric.edges(),
                    link_flap_rate=link_flap_rate,
                    link_down_time=link_down_time,
                )
                injector = FaultInjector(cluster, plan)
                injector.schedule()

                delivered: Dict[str, List[str]] = {}

                def tally_delivery(broker, subscriber, event, subscription):
                    delivered.setdefault(event.event_id, []).append(
                        subscription.subscription_id
                    )

                if durability is not None:
                    # Consume the subscriber-side deduped stream: the
                    # exactly-once surface replay is judged against.
                    durability.on_delivery(tally_delivery)
                else:
                    cluster.on_delivery(tally_delivery)

                publish_rng = rng.fork("publish")
                at = 0.0
                if publish_batch > 1:
                    chunk: List[Event] = []
                    for event in events:
                        at += publish_rng.expovariate(arrival_rate)
                        chunk.append(event)
                        if len(chunk) >= publish_batch:
                            cluster.publish_many_at(
                                at,
                                names[publish_rng.randint(0, len(names) - 1)],
                                chunk,
                            )
                            chunk = []
                    if chunk:
                        cluster.publish_many_at(
                            at, names[publish_rng.randint(0, len(names) - 1)], chunk
                        )
                else:
                    for event in events:
                        at += publish_rng.expovariate(arrival_rate)
                        cluster.publish_at(
                            at, names[publish_rng.randint(0, len(names) - 1)], event
                        )
                last_publish = at

                # Phase 1: churn.  Run past both the last fault action
                # (detection + restore + frozen-mailbox drain) *and* the
                # publication schedule's tail — the Poisson stream can
                # outlast churn_duration, and stopping before it drains
                # would tally unpublished events as churn losses.
                heal_horizon = (
                    max(churn_duration, plan.last_time)
                    + detect_timeout
                    + 6.0 * heartbeat_period
                    + 0.25
                )
                run_until = max(heal_horizon, last_publish + 1.0)
                detector.start(until=run_until + (2.0 if verify else 0.0))
                cluster.run(until=run_until)

                replayed = 0
                if durability is not None:
                    # Let the detector finish every pending failback, then
                    # replay the whole durable log: at-least-once over the
                    # healed overlay, collapsed back to exactly-once by
                    # the subscriber-side dedup the tally consumes.
                    cluster.run()
                    replayed = durability.replay_at_risk()
                    cluster.run()

                tallies = _loss_and_duplication(expected, delivered)
                if verify and replay and (
                    tallies["lost"] or tallies["duplicated"]
                ):
                    raise AssertionError(
                        "exactly-once oracle violated under mesh+crash+replay "
                        f"(topology={topology}, crash_rate={crash_rate}, "
                        f"recovery_delay={recovery_delay}): "
                        f"lost={tallies['lost']} "
                        f"duplicated={tallies['duplicated']} "
                        f"of {tallies['expected']} expected deliveries"
                    )
                loss_report = None
                if tracer is not None:
                    # Cross-check the span record against the delivery
                    # oracle at the same instant the tallies were taken.
                    loss_report = attribute_losses(tracer, expected, delivered)
                    if not loss_report.fully_attributed:
                        raise AssertionError(
                            "trace oracle: unexplained loss or incomplete "
                            f"span chain (topology={topology}, "
                            f"crash_rate={crash_rate}, "
                            f"recovery_delay={recovery_delay})\n"
                            + loss_report.summary()
                        )
                    if trace_dump is not None:
                        dump_points.append(
                            spans_payload(
                                tracer,
                                extra={
                                    "point": {
                                        "topology": topology,
                                        "crash_rate": crash_rate,
                                        "recovery_delay": recovery_delay,
                                    },
                                    "loss_attribution": loss_report.summary(),
                                },
                            )
                        )
                converged = routing_converged(cluster.fabric)
                all_links_up = all(
                    cluster.overlay_link_is_up(*sorted(pair))
                    for pair in cluster.intended_links
                )

                recoveries = [t for _n, _c, t in plan.broker_outages()]
                link_restore = detector.last_restore_time
                convergence_s = (
                    max(0.0, link_restore - max(recoveries))
                    if recoveries and link_restore is not None
                    else 0.0
                )

                if verify:
                    if not (converged and all_links_up):
                        raise AssertionError(
                            f"routing state failed to converge after heal "
                            f"(topology={topology}, crash_rate={crash_rate}, "
                            f"recovery_delay={recovery_delay})"
                        )
                    _verify_post_recovery(
                        cluster, names, subscriptions, rng.fork("verify"),
                        topics, arrival_rate, topology,
                        publish_batch=publish_batch,
                    )

                unavailability = sum(
                    broker.stats.downtime for broker in cluster.brokers.values()
                )
                outage = cluster.metrics.histogram("cluster.unavailability")
                # One structured snapshot instead of per-counter scraping.
                counters = cluster.metrics.snapshot()["counters"]
                row: Dict[str, object] = dict(
                    topology=topology,
                    crash_rate=crash_rate,
                    recovery_delay=recovery_delay,
                    crashes=plan.crash_count,
                    link_flaps=plan.link_flap_count,
                    expected=tallies["expected"],
                    delivered=tallies["expected"] - tallies["lost"],
                    lost=tallies["lost"],
                    lost_pct=(
                        100.0 * tallies["lost"] / tallies["expected"]
                        if tallies["expected"]
                        else 0.0
                    ),
                    duplicated=tallies["duplicated"],
                    unavailability_s=unavailability,
                    mean_outage_s=outage.mean if outage.count else 0.0,
                    suspicions=counters.get("detector.suspicions", 0.0),
                    false_suspicions=counters.get("detector.false_suspicions", 0.0),
                    link_restores=counters.get("detector.link_restores", 0.0),
                    convergence_s=convergence_s,
                    converged=float(converged and all_links_up),
                )
                if topology_is_cyclic(topology):
                    row["duplicates_suppressed"] = (
                        cluster.network.duplicates_suppressed
                    )
                if replication is not None:
                    row["replicate"] = replicate
                    row["peak_outages"] = plan.peak_concurrent_outages()
                    row["failovers"] = replication.failovers
                    row["failbacks"] = replication.failbacks
                if durability is not None:
                    row["replayed"] = replayed
                    row["deferred"] = durability.publishes_deferred
                    row["client_dupes_suppressed"] = (
                        durability.client_duplicates_suppressed
                    )
                if loss_report is not None:
                    row["lost_events"] = loss_report.events_lost
                    row["attributed"] = len(loss_report.verdicts)
                    row["drop_spans"] = len(tracer.drop_spans(definite_only=True))
                result.add_row(**row)
                detector.stop()
        # Per-broker timing breakdown for this topology (last sweep
        # point), wired into the report via the harness tables.
        result.add_table(
            f"broker timing — {topology} (last point)",
            broker_timing_breakdown(cluster),
        )
    result.attach_metrics(
        cluster.metrics,
        prefixes=("cluster.", "detector.", "faults.", "overlay."),
    )
    if trace_dump is not None and trace:
        with open(trace_dump, "w", encoding="utf-8") as handle:
            json.dump({"experiment": "C2", "points": dump_points}, handle)
            handle.write("\n")
        result.notes.append(f"span dump written to {trace_dump}")

    loss_channels = (
        "losses happen in the detection gap (events forwarded toward a dead "
        "broker before the heartbeat timeout fires), in lost in-service "
        "batches, and at dead ingress brokers (dropped publishes)"
    )
    if mailbox_policy == "freeze":
        result.notes.append(
            loss_channels
            + "; frozen mailboxes drain after recovery (queued work survives, "
            "delivered late), and higher crash rates widen both "
            "unavailability and the lost fraction"
        )
    else:
        result.notes.append(
            loss_channels
            + "; under the drop policy the crashed broker's queued mailbox is "
            "lost too, so every outage also discards whatever was waiting "
            "for service"
        )
    if verify:
        result.notes.append(
            "verified: after the final heal the live routing state equals a "
            "fabric rebuilt from scratch on the surviving topology (zero "
            "stale routes), and a post-recovery publication wave is "
            "delivered exactly per the single-engine oracle on every "
            "topology (no losses, no duplicates)"
        )
    if cross_check_repairs:
        result.notes.append(
            "cross-checked: every individual delta repair (retraction, link "
            "failover purge+readmit, failback merge) was verified against "
            "the retained full-rebuild path at mutation time"
        )
    if trace:
        result.notes.append(
            "trace oracle: every lost event terminated in a drop span whose "
            "cause agrees with the delivery oracle (crashed in-service "
            "batch, dropped mailbox, dead ingress, network drop, or "
            "degraded-routing window), and every delivered traced event "
            "shows a complete publish→deliver span chain"
        )
    if replicate > 0:
        result.notes.append(
            f"replicated: every subscription homed on a primary + "
            f"{replicate} BFS-nearest replicas; crash detection fails "
            "deliveries over to a live replica and fails back on recovery, "
            "all through the incremental control plane"
        )
    if replay:
        result.notes.append(
            "durable replay: ingress publications are logged per broker, "
            "publishes to down brokers deferred, unapplied suffixes "
            "replayed on recovery, and the whole log replayed after the "
            "churn horizon; subscriber-side dedup collapses the "
            "at-least-once stream to the exactly-once tally reported"
            + (
                " (verified: zero lost, zero duplicated)"
                if verify
                else ""
            )
        )
    return result


def _verify_post_recovery(
    cluster: BrokerCluster,
    names: Sequence[str],
    subscriptions: Sequence[Subscription],
    rng: SeededRNG,
    topics: Sequence[str],
    arrival_rate: float,
    topology: str,
    num_verify_events: int = 150,
    publish_batch: int = 0,
) -> None:
    """Publish a fresh wave after convergence; delivery must be exact.

    With ``publish_batch > 1`` the wave goes through ``publish_many_at``
    (the batched data plane) and is held to the same exact-match oracle.
    """
    events = [
        make_event(rng, topics, timestamp=1e6 + i) for i in range(num_verify_events)
    ]
    delivered: Dict[str, List[str]] = {}
    cluster.on_delivery(
        lambda broker, subscriber, event, subscription: delivered.setdefault(
            event.event_id, []
        ).append(subscription.subscription_id)
    )
    at = cluster.sim.now
    if publish_batch > 1:
        chunk: List[Event] = []
        for event in events:
            at += rng.expovariate(arrival_rate)
            chunk.append(event)
            if len(chunk) >= publish_batch:
                cluster.publish_many_at(
                    at, names[rng.randint(0, len(names) - 1)], chunk
                )
                chunk = []
        if chunk:
            cluster.publish_many_at(at, names[rng.randint(0, len(names) - 1)], chunk)
    else:
        for event in events:
            at += rng.expovariate(arrival_rate)
            cluster.publish_at(at, names[rng.randint(0, len(names) - 1)], event)
    cluster.run(until=at + 1.0)
    expected = _oracle_expectations(subscriptions, events)
    for index, event in enumerate(events):
        got = sorted(delivered.get(event.event_id, []))
        if got != expected[event.event_id]:
            raise AssertionError(
                f"post-recovery delivery diverged from oracle on verify event "
                f"{index} (topology={topology}): "
                f"got {len(got)}, expected {len(expected[event.event_id])}"
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Cluster churn sweep: crash rate x recovery delay x topology"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor (CI smoke uses 0.05)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="assert routing convergence + exact post-recovery delivery "
        "(exit 1 on violation)",
    )
    parser.add_argument(
        "--cross-check-repairs",
        action="store_true",
        help="cross-check every delta route repair against the retained "
        "full-rebuild path at mutation time (exit 1 on any snapshot "
        "divergence) — the control-plane CI oracle",
    )
    parser.add_argument(
        "--link-flap-rate",
        type=float,
        default=0.0,
        help="additional link up/down churn (flaps per link-second)",
    )
    parser.add_argument(
        "--mailbox-policy",
        choices=MAILBOX_POLICIES,
        default="freeze",
        help="what a crash does to queued events",
    )
    parser.add_argument(
        "--trace-oracle",
        action="store_true",
        help="run every point with full-sampling tracing and assert every "
        "lost event carries a drop-attribution span agreeing with the "
        "delivery oracle (exit 1 on any unattributed loss)",
    )
    parser.add_argument(
        "--trace-dump",
        metavar="PATH",
        default=None,
        help="with --trace-oracle, write the per-point span record as JSON "
        "(the CI build artifact)",
    )
    parser.add_argument(
        "--publish-batch",
        type=int,
        default=0,
        help="chunk the publication stream (and the post-recovery verify "
        "wave) through publish_many in batches of this size "
        "(0/1 = per-event publish)",
    )
    parser.add_argument(
        "--mesh",
        action="store_true",
        help="sweep the cyclic ring/mesh topologies (redundant-path "
        "routing with per-event dedup) instead of line/star/tree",
    )
    parser.add_argument(
        "--replicate",
        type=int,
        default=0,
        metavar="R",
        help="home every subscription on a primary plus R replicas with "
        "failover on crash detection and failback on recovery",
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="durable publish logs + deferred publishes + post-horizon "
        "replay with subscriber-side dedup; with --verify, assert the "
        "tally is exactly-once (zero lost, zero duplicated)",
    )
    parser.add_argument("--seed", type=int, default=29)
    args = parser.parse_args(argv)
    try:
        result = run_cluster_churn(
            topologies=(
                ("ring", "mesh") if args.mesh else ("line", "star", "tree")
            ),
            replicate=args.replicate,
            replay=args.replay,
            scale=args.scale,
            verify=args.verify,
            cross_check_repairs=args.cross_check_repairs,
            seed=args.seed,
            link_flap_rate=args.link_flap_rate,
            mailbox_policy=args.mailbox_policy,
            trace=args.trace_oracle,
            trace_dump=args.trace_dump,
            publish_batch=args.publish_batch,
        )
        print(result.summary())
    except AssertionError as error:
        print(f"CHURN ORACLE VIOLATION: {error}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
