"""The systems under test, each behind the same four-call interface.

``setup()`` is the cold start (build brokers, place every subscription,
routing converged); ``plan_round()`` prepares one round's inputs and the
oracle's expectations (untimed); ``run_round()`` is the timed region;
``teardown()`` releases everything.  All calls are coroutines so the
wire and the sim workloads share one harness loop — the sim ones simply
never suspend.

Everything runs in the harness process on one thread.  The wire system
hosts its three :class:`~repro.net.server.BrokerServer` instances in the
harness's own event loop, with real loopback TCP between them and to the
two client sessions (traffic crosses the host's loopback interface, never
a link).  Only public ``repro`` APIs are used.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from oracle import Oracle, Pair
from workloads import (
    EventSpec,
    FanoutWorkload,
    SubSpec,
    WireWorkload,
    to_event,
    to_subscription,
)

HOST = "127.0.0.1"
ROUND_TIMEOUT_S = 60.0
SETUP_TIMEOUT_S = 60.0
#: Convergence is polled through ``stats`` at this interval.
POLL_S = 0.002
SUBSCRIBE_CHUNK = 1000


@dataclass
class RoundPlan:
    """Inputs of one round plus what the oracle expects back."""

    specs: List[EventSpec]
    payload: object
    #: event id -> number of (event, subscription) pairs that must arrive.
    expected: Dict[str, int]
    #: Publish calls the round will make.
    publishes: int
    #: Subscriptions placed / retracted by the round's control calls.
    subscribed: int = 0
    unsubscribed: int = 0
    #: Full ``(event_id, subscription_id)`` set; verification round only.
    expected_pairs: Optional[set] = None

    @property
    def control_calls(self) -> int:
        return self.subscribed + self.unsubscribed


@dataclass
class RoundOutcome:
    delivered: Dict[str, int] = field(default_factory=dict)
    #: Seconds, one sample per delivery (wire) or per batch (sim).
    latencies: List[float] = field(default_factory=list)
    publish_failures: int = 0
    control_failures: int = 0
    #: Full pair list, collected only in the verification round.
    pairs: Optional[List[Pair]] = None


def _plan_events(workload, oracle: Oracle):
    """The next round's event specs, the program's events built from them,
    and the oracle's pair count per event id."""
    specs = workload.round_events()
    events = [to_event(spec) for spec in specs]
    count = oracle.count
    return specs, events, {spec.event_id: count(spec) for spec in specs}


def _count_faults(system) -> int:
    """The program's own signs of a lost or refused message."""
    counters = system.counters()
    return int(sum(counters.get(name, 0.0) for name in system.FAULT_COUNTERS))


class WireSystem:
    """Line b0-b1-b2 of in-loop broker servers, publisher session on b0,
    subscriber session on b2."""

    FAULT_COUNTERS = (
        "net.deliveries_unroutable",
        "net.forwards_dropped",
        "net.protocol_errors",
        "net.frame_errors",
    )

    def __init__(self, workload: WireWorkload, sub_specs: Sequence[SubSpec], oracle: Oracle) -> None:
        self.workload = workload
        self.oracle = oracle
        self._subscriptions = [to_subscription(spec) for spec in sub_specs]
        self.servers: Dict[str, object] = {}
        self.publisher = None
        self.subscriber = None

    # -- lifecycle ---------------------------------------------------------

    async def setup(self) -> None:
        from repro.net.client import connect
        from repro.net.server import BrokerServer

        workload = self.workload
        # The lower-index endpoint of every edge dials (as the launcher
        # does), so brokers start from the far end of the line.
        previous = None
        for name in reversed(workload.brokers):
            dial = {previous.name: (HOST, previous.port)} if previous else None
            server = BrokerServer(name, host=HOST, port=0, dial=dial)
            await server.start()
            self.servers[name] = server
            previous = server
        self.subscriber = await connect(
            HOST, self.servers[workload.subscribe_broker].port,
            name="subscriber", reconnect=False,
        )
        self.publisher = await connect(
            HOST, self.servers[workload.publish_broker].port,
            name="publisher", reconnect=False,
        )
        subscriptions = self._subscriptions
        for start in range(0, len(subscriptions), SUBSCRIBE_CHUNK):
            await self.subscriber.subscribe_many(
                subscriptions[start : start + SUBSCRIBE_CHUNK]
            )
        # Flooding invariant on a line: the ingress broker holds every
        # subscription as routing state once advertisement has converged
        # (and it can only have learned them through b1).
        deadline = time.monotonic() + SETUP_TIMEOUT_S
        while True:
            stats = await self.publisher.stats()
            if int(stats.get("routing_table", -1)) >= len(subscriptions):
                return
            if time.monotonic() > deadline:
                raise TimeoutError("subscription flooding did not converge")
            await asyncio.sleep(POLL_S)

    async def teardown(self) -> None:
        for client in (self.publisher, self.subscriber):
            if client is not None:
                await client.close()
        for server in self.servers.values():
            await server.shutdown(drain=False)
        self.servers.clear()
        self.publisher = self.subscriber = None

    # -- rounds ------------------------------------------------------------

    def plan_round(self, full: bool = False) -> RoundPlan:
        workload = self.workload
        specs, events, expected = _plan_events(workload, self.oracle)
        if workload.batch > 1:
            payload = [
                events[start : start + workload.batch]
                for start in range(0, len(events), workload.batch)
            ]
        else:
            payload = events
        return RoundPlan(
            specs, payload, expected, publishes=len(payload),
            expected_pairs=self.oracle.pairs(specs) if full else None,
        )

    async def run_round(self, plan: RoundPlan, collect_pairs: bool = False) -> RoundOutcome:
        outcome = RoundOutcome(pairs=[] if collect_pairs else None)
        expected = plan.expected
        to_see = sum(1 for want in expected.values() if want)
        if self.workload.batch > 1:
            produce = self._produce_pipelined(plan, outcome)
        else:
            produce = self._produce_ackpaced(plan, outcome)
        self._outstanding = 0
        self._credit = asyncio.Event()
        await asyncio.wait_for(
            asyncio.gather(produce, self._consume(to_see, outcome)),
            timeout=ROUND_TIMEOUT_S,
        )
        return outcome

    async def _consume(self, to_see: int, outcome: RoundOutcome) -> None:
        """Drain the subscriber session until every event the oracle says
        must arrive has been seen once; returns a credit per event."""
        delivered = outcome.delivered
        latencies = outcome.latencies
        pairs = outcome.pairs
        next_event = self.subscriber.next_event
        seen = 0
        while seen < to_see:
            delivery = await next_event()
            if delivery is None:
                raise ConnectionError("subscriber stream closed mid-round")
            event_id = delivery.event.event_id
            ids = delivery.subscription_ids
            if event_id in delivered:
                delivered[event_id] += len(ids)
            else:
                delivered[event_id] = len(ids)
                seen += 1
                self._outstanding -= 1
                self._credit.set()
            latencies.append(delivery.received_at - delivery.origin_ts)
            if pairs is not None:
                pairs.extend((event_id, sub_id) for sub_id in ids)

    async def _produce_pipelined(self, plan: RoundPlan, outcome: RoundOutcome) -> None:
        """Closed loop: ``publish_many`` frames stay in flight while at most
        ``window`` published events are still undelivered."""
        window = self.workload.window
        expected = plan.expected
        publish_many = self.publisher.publish_many
        credit = self._credit

        async def send(batch, silent: int) -> None:
            try:
                await publish_many(batch)
            except Exception:  # nack, timeout or lost connection: counted
                outcome.publish_failures += 1
            # Events nobody subscribes to never reach the subscriber; their
            # credit comes back with the ack.
            self._outstanding -= silent
            credit.set()

        in_flight = []
        for batch in plan.payload:
            while self._outstanding + len(batch) > window:
                credit.clear()
                await credit.wait()
            self._outstanding += len(batch)
            silent = sum(1 for event in batch if not expected[event.event_id])
            in_flight.append(asyncio.ensure_future(send(batch, silent)))
        await asyncio.gather(*in_flight)

    async def _produce_ackpaced(self, plan: RoundPlan, outcome: RoundOutcome) -> None:
        """Closed loop, one request outstanding: next publish after the ack."""
        publish = self.publisher.publish
        for event in plan.payload:
            try:
                await publish(event)
            except Exception:  # nack, timeout or lost connection: counted
                outcome.publish_failures += 1

    # -- public counters ---------------------------------------------------

    def counters(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for server in self.servers.values():
            for name, value in server.metrics.counters().items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def gauges(self) -> Dict[str, float]:
        return {
            "routing_state": float(
                sum(server.node.routing_table_size() for server in self.servers.values())
            ),
            "histogram_samples": 0.0,
        }

    fault_count = _count_faults


class _SimSystem:
    """Shared parts of the two sim-clock cluster workloads."""

    allow_cycles = False
    dedup_ttl: Optional[float] = 60.0
    FAULT_COUNTERS = (
        "cluster.events_lost",
        "cluster.publishes_dropped",
        "network.messages_dropped",
    )

    def __init__(self, workload, sub_specs: Sequence[SubSpec], oracle: Oracle) -> None:
        self.workload = workload
        self.oracle = oracle
        self._placement: Dict[str, list] = {}
        for spec in sub_specs:
            self._placement.setdefault(spec.broker, []).append(to_subscription(spec))
        self.cluster = None
        self._delivered: Dict[str, int] = {}
        self._pairs: Optional[List[Pair]] = None

    async def setup(self) -> None:
        from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology

        workload = self.workload
        cluster = BrokerCluster(
            allow_cycles=self.allow_cycles, dedup_ttl=self.dedup_ttl
        )
        build_cluster_topology(workload.topology, len(workload.brokers), cluster)
        cluster.on_delivery_batch(self._on_delivery)
        for broker in workload.brokers:
            cluster.subscribe_many(broker, self._placement.get(broker, ()))
        self.cluster = cluster

    async def teardown(self) -> None:
        self.cluster = None

    def _on_delivery(self, _broker: str, event, row) -> None:
        delivered = self._delivered
        event_id = event.event_id
        delivered[event_id] = delivered.get(event_id, 0) + len(row)
        if self._pairs is not None:
            self._pairs.extend((event_id, sub.subscription_id) for sub in row)

    def _begin(self, collect_pairs: bool) -> RoundOutcome:
        outcome = RoundOutcome(pairs=[] if collect_pairs else None)
        self._delivered = outcome.delivered
        self._pairs = outcome.pairs
        return outcome

    def counters(self) -> Dict[str, float]:
        return dict(self.cluster.metrics.counters())

    def gauges(self) -> Dict[str, float]:
        """Sizes read once after the measured rounds (public accessors)."""
        histograms = self.cluster.metrics.snapshot()["histograms"]
        return {
            "routing_state": float(self.cluster.total_routing_state()),
            "histogram_samples": sum(h["count"] for h in histograms.values()),
        }

    fault_count = _count_faults


class FanoutSystem(_SimSystem):
    """``sim_fanout``: ``publish_many`` batches at rotating ingress brokers
    of a five-broker tree, each drained with ``run()``."""

    def __init__(self, workload: FanoutWorkload, sub_specs, oracle) -> None:
        super().__init__(workload, sub_specs, oracle)
        self._next_ingress = 0

    def plan_round(self, full: bool = False) -> RoundPlan:
        workload = self.workload
        specs, events, expected = _plan_events(workload, self.oracle)
        batches = []
        for start in range(0, len(events), workload.batch):
            ingress = workload.brokers[self._next_ingress % len(workload.brokers)]
            self._next_ingress += 1
            batches.append((ingress, events[start : start + workload.batch]))
        return RoundPlan(
            specs, batches, expected, publishes=len(batches),
            expected_pairs=self.oracle.pairs(specs) if full else None,
        )

    async def run_round(self, plan: RoundPlan, collect_pairs: bool = False) -> RoundOutcome:
        outcome = self._begin(collect_pairs)
        cluster = self.cluster
        latencies = outcome.latencies
        clock = time.perf_counter
        for ingress, batch in plan.payload:
            start = clock()
            if cluster.publish_many(ingress, batch) != len(batch):
                outcome.publish_failures += 1
            cluster.run()
            latencies.append(clock() - start)
        return outcome


class ChurnSystem(_SimSystem):
    """``sim_churn``: subscribe a batch / publish / unsubscribe the previous
    batch, on a six-broker ring (mesh routing, dedup on)."""

    allow_cycles = True
    # Sim seconds.  A round advances the sim clock by ~0.21 s, so after the
    # two warm-up rounds the dedup window is evicting (steady state) instead
    # of growing for the whole run; a duplicate trails its original by a few
    # link latencies (2 ms each), far inside the window.
    dedup_ttl = 0.4

    def plan_round(self, full: bool = False) -> RoundPlan:
        oracle = self.oracle
        steps = self.workload.round_steps()
        expected: Dict[str, int] = {}
        pairs = set() if full else None
        specs: List[EventSpec] = []
        payload = []
        subscribed = unsubscribed = 0
        for step in steps:
            # The oracle follows the live subscription set step by step.
            for spec in step.subscribe:
                oracle.add(spec)
            for event in step.events:
                expected[event.event_id] = oracle.count(event)
            if pairs is not None:
                pairs |= oracle.pairs(step.events)
            for spec in step.unsubscribe:
                oracle.remove(spec)
            specs.extend(step.events)
            subscribed += len(step.subscribe)
            unsubscribed += len(step.unsubscribe)
            payload.append(
                (
                    step.home,
                    [to_subscription(spec) for spec in step.subscribe],
                    step.ingress,
                    [to_event(spec) for spec in step.events],
                    step.previous_home,
                    [spec.sub_id for spec in step.unsubscribe],
                )
            )
        return RoundPlan(
            specs, payload, expected,
            publishes=len(steps),
            subscribed=subscribed, unsubscribed=unsubscribed, expected_pairs=pairs,
        )

    async def run_round(self, plan: RoundPlan, collect_pairs: bool = False) -> RoundOutcome:
        outcome = self._begin(collect_pairs)
        cluster = self.cluster
        latencies = outcome.latencies
        clock = time.perf_counter
        for home, subscriptions, ingress, events, previous_home, retired in plan.payload:
            placed = cluster.subscribe_many(home, subscriptions)
            outcome.control_failures += abs(len(subscriptions) - len(placed))
            start = clock()
            if cluster.publish_many(ingress, events) != len(events):
                outcome.publish_failures += 1
            cluster.run()
            latencies.append(clock() - start)
            if retired:
                removed = cluster.unsubscribe_many(previous_home, retired)
                outcome.control_failures += len(retired) - sum(1 for ok in removed if ok)
        return outcome
