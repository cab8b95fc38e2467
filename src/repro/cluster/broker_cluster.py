"""Broker cluster: mailbox-driven broker processes on the simulation engine.

The :class:`~repro.pubsub.router.BrokerOverlay` models routing topology but
executes synchronously — a publication runs to completion instantly.  A
:class:`BrokerCluster` instead models each broker as a *process*: published
events enter a per-broker mailbox (FIFO queue) and are served by the
broker at a configurable service rate, optionally in batches with a fixed
per-cycle overhead (the connection handshake / syscall / dispatch cost
batching amortizes).

Clusters are *routed*: brokers joined with :meth:`BrokerCluster.connect`
share the same :class:`~repro.cluster.routing.RoutingFabric` the
synchronous overlay uses, so subscriptions placed at one broker propagate
routes through the topology (pruned by covering) and served events are
forwarded along interested links.  Forwarding is not a function call — it
is an ``event.forward`` message through
:class:`~repro.sim.network.SimulatedNetwork` with per-link latency, landing
in the neighbour's mailbox like any publication, so hop latency, remote
queueing and service time all show up in the end-to-end delivery delay.

The data plane is *batched* end to end (PR 8): :meth:`BrokerCluster.publish_many`
enqueues a whole event batch as ONE mailbox entry, a service cycle
matches it through ``match_batch`` with per-broker probe/result caches
that persist across cycles (dropped on any engine mutation), next-hop
fan-out comes from the fabric's route-set cache (invalidated by a
routing-version counter bumped on every control-plane mutation), and all
served events sharing a next hop leave as one ``event.forward_batch``
message per link — one latency charge per coalesced message, while
delivery, statistics, tracing spans and loss attribution all stay
per-event.  The batched path is delivery-identical to per-event
``publish`` in a loop (pinned by the property suite).

The cluster runs on :class:`~repro.sim.engine.SimulationEngine`, so
queueing delay, service time and throughput come out of simulated time,
and all observations land in a :class:`~repro.sim.metrics.MetricsRegistry`:

* ``cluster.queue_delay`` — histogram of arrival-to-completion delay
  (per mailbox pass);
* ``cluster.wait_time`` — histogram of arrival-to-service-start delay;
* ``cluster.service_batch`` — histogram of served batch sizes;
* ``cluster.events_processed`` / ``cluster.deliveries`` — counters;
* ``cluster.events_forwarded`` — counter of inter-broker forwards sent;
* ``cluster.delivery_hops`` — histogram of overlay hops per delivery;
* ``cluster.e2e_delay`` — histogram of publish-to-delivery delay
  (queueing + service at every broker on the path + link latency);
* ``cluster.queue_depth.<broker>`` — gauge of the live mailbox depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.cluster.durable import DedupIndex
from repro.cluster.routing import RoutingFabric
from repro.obs.audit import RouteAuditLog
from repro.obs.trace import TraceContext, Tracer
from repro.pubsub.broker import Broker
from repro.pubsub.events import Event
from repro.pubsub.matching import BatchMatchCache, MatchingEngine
from repro.pubsub.subscriptions import Subscription
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Link, Message, SimulatedNetwork

# Cluster deliveries also carry the serving broker's name (4 args, unlike
# the 3-arg repro.pubsub.broker.DeliveryCallback).
ClusterDeliveryCallback = Callable[[str, str, Event, Subscription], None]
# Vectorized delivery callback: (broker name, event, full match row).
ClusterDeliveryBatchCallback = Callable[[str, Event, List[Subscription]], None]
# Lifecycle notifications: ("crashed" | "recovered", broker name, sim time).
LifecycleCallback = Callable[[str, str, float], None]
# Overlay link notifications: ("failed" | "restored", first, second, sim time).
LinkEventCallback = Callable[[str, str, str, float], None]

# What a crash does to a broker's queued events: "freeze" keeps the
# mailbox for post-recovery service (durable queue), "drop" loses it
# (in-memory queue).  Single source of truth for validators and CLIs.
MAILBOX_POLICIES = ("freeze", "drop")


@dataclass
class EventEnvelope:
    """An event in flight through the cluster's message plane.

    Carries the routing context a plain :class:`Event` cannot: when the
    original publication entered the system (for end-to-end delay), how
    many overlay links it has crossed, and which neighbour handed it over
    (so forwarding never bounces an event back along its arrival link).
    ``trace`` is the sampled-trace handle (``None`` for unsampled events
    and for clusters without a tracer — the common, zero-cost case).
    ``attempt`` is the durable-replay incarnation of the publication: the
    mesh dedup seen-set is keyed ``(event_id, attempt)``, so a replay
    (attempt+1) traverses the redundant overlay again while in-flight
    duplicates of the same attempt are suppressed.
    """

    event: Event
    origin_time: float
    hops: int = 0
    came_from: Optional[str] = None
    trace: Optional[TraceContext] = None
    attempt: int = 0


@dataclass
class BatchEnvelope:
    """A batch of envelopes travelling (or queued) as one unit.

    Used both as a single mailbox entry (``publish_many`` enqueues the
    whole batch at once, so the queue pays one entry, one dispatch and
    one service-cycle overhead for it) and as the payload of an
    ``event.forward_batch`` network message (all served events sharing a
    next hop coalesce into one message per link).  Every member keeps its
    own :class:`EventEnvelope` — per-event hops, origin time and trace
    context survive batching untouched.
    """

    envelopes: List[EventEnvelope]


def _flatten_entries(
    entries: Iterable[Tuple[float, object]],
) -> List[Tuple[float, EventEnvelope]]:
    """Expand mailbox entries into per-event ``(enqueued_at, envelope)``
    pairs (a :class:`BatchEnvelope` entry contributes one pair per member,
    all stamped with the batch's enqueue time)."""
    flat: List[Tuple[float, EventEnvelope]] = []
    for enqueued_at, payload in entries:
        if type(payload) is BatchEnvelope:
            for envelope in payload.envelopes:
                flat.append((enqueued_at, envelope))
        else:
            flat.append((enqueued_at, payload))
    return flat


@dataclass
class BrokerProcessStats:
    """Per-broker accounting over one simulation run."""

    events_enqueued: int = 0
    events_processed: int = 0
    deliveries: int = 0
    service_cycles: int = 0
    busy_time: float = 0.0
    events_forwarded: int = 0
    forwards_received: int = 0
    duplicates_suppressed: int = 0
    crashes: int = 0
    events_lost: int = 0
    downtime: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "events_enqueued": float(self.events_enqueued),
            "events_processed": float(self.events_processed),
            "deliveries": float(self.deliveries),
            "service_cycles": float(self.service_cycles),
            "busy_time": self.busy_time,
            "events_forwarded": float(self.events_forwarded),
            "forwards_received": float(self.forwards_received),
            "duplicates_suppressed": float(self.duplicates_suppressed),
            "crashes": float(self.crashes),
            "events_lost": float(self.events_lost),
            "downtime": self.downtime,
        }


class BrokerProcess:
    """One mailbox-driven broker: a queue, a routing node, a server.

    The broker's matching engine and its routing state live on ``node``
    (a :class:`~repro.pubsub.broker.Broker`), shared with the routing
    fabric; ``engine`` exposes the node's local matching engine.
    """

    def __init__(
        self,
        name: str,
        node: Broker,
        service_rate: float,
        batch_size: int,
        batch_overhead: float,
        mailbox_policy: str = "freeze",
    ) -> None:
        if service_rate <= 0:
            raise ValueError("service_rate must be positive (events per second)")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if batch_overhead < 0:
            raise ValueError("batch_overhead must be non-negative")
        if mailbox_policy not in MAILBOX_POLICIES:
            raise ValueError(f"mailbox_policy must be one of {MAILBOX_POLICIES}")
        self.name = name
        self.node = node
        self.service_rate = service_rate
        self.batch_size = batch_size
        self.batch_overhead = batch_overhead
        # Entries are (enqueue time, EventEnvelope | BatchEnvelope): a
        # publish_many batch (or a coalesced forward) occupies ONE entry.
        self.mailbox: Deque[Tuple[float, object]] = deque()
        # Events across all mailbox entries, kept so queue_depth stays
        # O(1) with batch entries in the queue.
        self._queued_events = 0
        self.busy = False
        self.stats = BrokerProcessStats()
        # Cross-cycle probe/result cache for the local engine's batched
        # matching; self-invalidates on engine mutation (version check).
        self._match_cache = BatchMatchCache()
        # -- crash lifecycle -------------------------------------------------
        # What happens to queued work when the broker dies: "freeze" keeps
        # the mailbox for post-recovery service (durable queue), "drop"
        # loses it (in-memory queue).  The batch *in service* is always
        # lost — it existed only in the crashed process.
        self.mailbox_policy = mailbox_policy
        self.up = True
        # Bumped on every crash so stale service completions scheduled by a
        # previous life of the broker are ignored.
        self.incarnation = 0
        self.crashed_at: Optional[float] = None
        self._in_service: Optional[List[Tuple[float, EventEnvelope]]] = None
        # Set by BrokerCluster.add_broker so the per-broker subscribe
        # helpers go through the routing fabric (standalone processes
        # outside a cluster fall back to local-only behavior).
        self._cluster: Optional["BrokerCluster"] = None
        # Per-event dedup seen-set, present only on cyclic (mesh)
        # clusters: redundant paths deliver the same event along several
        # routes, and this index makes each broker serve an (event,
        # attempt) at most once.  It deliberately survives crashes — the
        # recovered broker suppressing a copy it already served is always
        # safe because lost work is recovered by durable replay, never by
        # re-forwarding.
        self.seen: Optional[DedupIndex] = None

    @property
    def engine(self) -> MatchingEngine:
        return self.node.local_engine

    def subscribe(self, subscription: Subscription) -> None:
        if self._cluster is not None:
            self._cluster.subscribe(self.name, subscription)
        else:
            self.node.subscribe_local(subscription)

    def unsubscribe(self, subscription_id: str) -> bool:
        if self._cluster is not None:
            return self._cluster.unsubscribe(self.name, subscription_id)
        return self.node.unsubscribe_local(subscription_id)

    @property
    def queue_depth(self) -> int:
        """Queued *events* (batch mailbox entries count all their members)."""
        return self._queued_events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BrokerProcess({self.name!r}, queued={self._queued_events}, "
            f"rate={self.service_rate}, batch={self.batch_size})"
        )


class _BrokerPort:
    """Network endpoint of one broker: forwarded events land in its mailbox,
    heartbeats go to the attached failure detector (if any)."""

    def __init__(self, cluster: "BrokerCluster", broker: BrokerProcess) -> None:
        self.cluster = cluster
        self.broker = broker

    def handle_message(self, message: Message, network: SimulatedNetwork) -> None:
        if message.kind == "event.forward":
            self.cluster._receive_forward(self.broker, message.payload)
        elif message.kind == "event.forward_batch":
            self.cluster._receive_forward_batch(self.broker, message.payload)
        elif message.kind == "heartbeat":
            self.cluster._receive_heartbeat(self.broker, message)
        # Unknown kinds are ignored: a crashed broker's port may still see
        # stragglers from protocols layered on later.


class BrokerCluster:
    """A set of broker processes sharing one simulation clock and metrics."""

    def __init__(
        self,
        sim: Optional[SimulationEngine] = None,
        metrics: Optional[MetricsRegistry] = None,
        service_rate: float = 2000.0,
        batch_size: int = 1,
        batch_overhead: float = 0.0,
        link_latency: float = 0.002,
        network: Optional[SimulatedNetwork] = None,
        mailbox_policy: str = "freeze",
        merge_ingress: bool = False,
        tracer: Optional[Tracer] = None,
        route_audit: bool = False,
        allow_cycles: bool = False,
        dedup_ttl: Optional[float] = 60.0,
    ) -> None:
        if link_latency < 0:
            raise ValueError("link_latency must be non-negative")
        if mailbox_policy not in MAILBOX_POLICIES:
            raise ValueError(f"mailbox_policy must be one of {MAILBOX_POLICIES}")
        self.sim = sim if sim is not None else SimulationEngine()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.default_service_rate = service_rate
        self.default_batch_size = batch_size
        self.default_batch_overhead = batch_overhead
        self.default_mailbox_policy = mailbox_policy
        self.link_latency = link_latency
        # Cyclic (mesh) clusters route over redundant paths: the fabric
        # keeps routes on every 2-connected edge and the data plane
        # suppresses the duplicate forwards with per-broker seen-sets
        # bounded by ``dedup_ttl`` (sim seconds).
        self.allow_cycles = allow_cycles
        self.dedup_ttl = dedup_ttl
        self.fabric = RoutingFabric(
            metrics=self.metrics,
            merge_ingress=merge_ingress,
            audit=RouteAuditLog() if route_audit else None,
            allow_cycles=allow_cycles,
        )
        self.network = (
            network
            if network is not None
            else SimulatedNetwork(
                self.sim, metrics=self.metrics, default_link=Link(latency=link_latency)
            )
        )
        self.brokers: Dict[str, BrokerProcess] = {}
        self._ports: Dict[str, _BrokerPort] = {}
        self._delivery_callbacks: List[ClusterDeliveryCallback] = []
        self._delivery_batch_callbacks: List[ClusterDeliveryBatchCallback] = []
        self._lifecycle_callbacks: List[LifecycleCallback] = []
        self._link_callbacks: List[LinkEventCallback] = []
        # Attached by repro.cluster.durable.DurabilityManager.
        self._durability: Optional[object] = None
        # Intended overlay links (set by connect) and whether the routing
        # layer currently believes each is usable; a failure detector (or a
        # test) flips them with fail_link/restore_link.
        self.intended_links: Set[FrozenSet[str]] = set()
        self._link_up: Dict[FrozenSet[str], bool] = {}
        # Attached by repro.cluster.recovery.FailureDetector.
        self._detector: Optional[object] = None
        # -- observability -----------------------------------------------------
        # The tracer threads TraceContexts through the message plane; a
        # cluster without one pays a single `is not None` per publish.
        # Degraded-state counters (crashed brokers / torn-down overlay
        # links) make "is routing degraded right now" an O(1) question —
        # traced events served during a degraded window get an at-risk
        # marker so pruned-route losses stay attributable.
        self.tracer = tracer
        self._down_brokers = 0
        self._down_overlay_links = 0
        if tracer is not None:
            self.network.add_drop_listener(self._on_network_drop)

    @property
    def route_audit(self) -> Optional[RouteAuditLog]:
        """The control-plane audit log (``route_audit=True``), or None."""
        return self.fabric.audit

    # -- wiring ------------------------------------------------------------

    def add_broker(
        self,
        name: str,
        service_rate: Optional[float] = None,
        batch_size: Optional[int] = None,
        batch_overhead: Optional[float] = None,
        mailbox_policy: Optional[str] = None,
    ) -> BrokerProcess:
        if name in self.brokers:
            raise ValueError(f"broker {name!r} already exists")
        node = Broker(name)
        broker = BrokerProcess(
            name=name,
            node=node,
            service_rate=(
                service_rate if service_rate is not None else self.default_service_rate
            ),
            batch_size=batch_size if batch_size is not None else self.default_batch_size,
            batch_overhead=(
                batch_overhead
                if batch_overhead is not None
                else self.default_batch_overhead
            ),
            mailbox_policy=(
                mailbox_policy
                if mailbox_policy is not None
                else self.default_mailbox_policy
            ),
        )
        broker._cluster = self
        if self.allow_cycles:
            broker.seen = DedupIndex(ttl=self.dedup_ttl)
        self.brokers[name] = broker
        self.fabric.add_node(name, node)
        port = _BrokerPort(self, broker)
        self._ports[name] = port
        self.network.register(name, port)
        return broker

    def connect(
        self, first: str, second: str, latency: Optional[float] = None
    ) -> None:
        """Join two brokers with a bidirectional overlay link.

        Subscription routes start propagating across the link immediately
        (subscriptions placed before the link existed are re-advertised),
        and served events are forwarded over it with ``latency`` seconds
        of one-way delay (the cluster default when not given).
        """
        if latency is not None and latency < 0:
            raise ValueError("latency must be non-negative")
        self.fabric.connect(first, second)
        pair = frozenset((first, second))
        self.intended_links.add(pair)
        self._link_up[pair] = True
        if latency is not None:
            link = Link(latency=latency)
            self.network.set_link(first, second, link)
            self.network.set_link(second, first, link)

    def subscribe(self, broker_name: str, subscription: Subscription) -> None:
        """Place a subscription at a broker and propagate its route."""
        self._broker(broker_name)
        self.fabric.subscribe_at(broker_name, subscription)

    def subscribe_many(self, broker_name: str, subscriptions: Iterable[Subscription]):
        """Batch-place subscriptions at a broker: one advertisement walk
        through the fabric for the whole batch (see
        ``RoutingFabric.subscribe_many_at``).  Returns the per-subscription
        ``SubscribeOutcome`` list."""
        self._broker(broker_name)
        return self.fabric.subscribe_many_at(broker_name, subscriptions)

    def unsubscribe(self, broker_name: str, subscription_id: str) -> bool:
        """Remove a subscription homed at ``broker_name`` (with routing
        repair for subscriptions its covering had pruned)."""
        self._broker(broker_name)
        return self.fabric.unsubscribe_at(broker_name, subscription_id)

    def unsubscribe_many(
        self, broker_name: str, subscription_ids: Iterable[str]
    ) -> List[bool]:
        """Batch-retract subscriptions homed at ``broker_name``: one
        readmission flush per touched edge for the whole batch (see
        ``RoutingFabric.unsubscribe_many_at``); snapshot-identical to
        :meth:`unsubscribe` in a loop.  Returns per-id results."""
        self._broker(broker_name)
        return self.fabric.unsubscribe_many_at(broker_name, subscription_ids)

    def on_delivery(self, callback: ClusterDeliveryCallback) -> None:
        """Register a callback invoked per delivery
        (broker name, subscriber, event, matching subscription)."""
        self._delivery_callbacks.append(callback)

    def on_delivery_batch(self, callback: ClusterDeliveryBatchCallback) -> None:
        """Register a callback invoked once per event with its full match
        row (broker name, event, matched subscriptions).

        The vectorized form of :meth:`on_delivery` — the serve loop calls
        it once per event instead of once per (event, subscription) pair,
        which is where most of the residual per-event cost of the routed
        path lives at high fan-out.
        """
        self._delivery_batch_callbacks.append(callback)

    def on_lifecycle(self, callback: LifecycleCallback) -> None:
        """Register a callback invoked on broker crash/recovery
        (kind ``"crashed"``/``"recovered"``, broker name, sim time)."""
        self._lifecycle_callbacks.append(callback)

    def on_link_event(self, callback: LinkEventCallback) -> None:
        """Register a callback invoked when an overlay link is torn down
        or restored (kind ``"failed"``/``"restored"``, endpoints, sim
        time).  This is the detector-driven signal — it fires when the
        routing layer *learns* of a failure, not when the fault is
        injected — which is what replication failover keys off."""
        self._link_callbacks.append(callback)

    def attach_durability(self, manager: object) -> None:
        """Called by :class:`repro.cluster.durable.DurabilityManager` to
        hook publish logging / deferral / applied-marking into the data
        plane.  One manager per cluster."""
        if self._durability is not None:
            raise ValueError("a DurabilityManager is already attached")
        self._durability = manager

    def _broker(self, name: str) -> BrokerProcess:
        broker = self.brokers.get(name)
        if broker is None:
            raise KeyError(f"unknown broker {name!r}")
        return broker

    # -- fault tolerance ---------------------------------------------------

    def crash_broker(self, name: str) -> None:
        """Kill a broker process at the current sim time.

        The broker leaves the network (in-flight and future messages to it
        become counted drops), the batch in service is lost, and its
        mailbox follows the broker's ``mailbox_policy``: ``freeze`` keeps
        queued events for post-recovery service, ``drop`` loses them.
        Routing state is *not* touched here — neighbours keep forwarding
        into the void until a :class:`~repro.cluster.recovery.FailureDetector`
        (or the test driver, via :meth:`fail_link`) notices and repairs.
        """
        broker = self._broker(name)
        if not broker.up:
            return
        now = self.sim.now
        broker.up = False
        broker.incarnation += 1
        broker.crashed_at = now
        broker.stats.crashes += 1
        self._down_brokers += 1
        if self.tracer is not None:
            self.tracer.note_anomaly(f"crash:{name}", now)
        # The batch being served existed only in the dead process.
        if broker._in_service is not None:
            self._count_lost(broker, len(broker._in_service))
            self._trace_lost_batch(broker._in_service, name, "crashed_in_service")
            broker._in_service = None
        broker.busy = False
        if broker.mailbox_policy == "drop" and broker.mailbox:
            queued = _flatten_entries(broker.mailbox)
            self._count_lost(broker, len(queued))
            self._trace_lost_batch(queued, name, "mailbox_dropped")
            broker.mailbox.clear()
            broker._queued_events = 0
        self.metrics.gauge(f"cluster.queue_depth.{name}").set(broker.queue_depth)
        self.network.unregister(name)
        self.metrics.counter("cluster.broker_crashes").increment()
        for callback in self._lifecycle_callbacks:
            callback("crashed", name, now)

    def recover_broker(self, name: str) -> None:
        """Restart a crashed broker at the current sim time.

        The broker rejoins the network and resumes serving whatever its
        mailbox froze.  Its local subscription set survived the crash
        (durable subscription storage); routes toward it are re-advertised
        when the failure detector restores its links — or immediately, if
        no detector ever tore them down.
        """
        broker = self._broker(name)
        if broker.up:
            return
        now = self.sim.now
        broker.up = True
        if broker.crashed_at is not None:
            window = now - broker.crashed_at
            broker.stats.downtime += window
            self.metrics.histogram("cluster.unavailability").observe(window)
        broker.crashed_at = None
        self._down_brokers -= 1
        self.network.register(name, self._ports[name])
        self.metrics.counter("cluster.broker_recoveries").increment()
        for callback in self._lifecycle_callbacks:
            callback("recovered", name, now)
        self._maybe_clear_anomaly()
        self._start_service(broker)

    def crash_at(self, time: float, name: str) -> None:
        self.sim.schedule_at(
            time, lambda _engine: self.crash_broker(name), label=f"crash:{name}"
        )

    def recover_at(self, time: float, name: str) -> None:
        self.sim.schedule_at(
            time, lambda _engine: self.recover_broker(name), label=f"recover:{name}"
        )

    def fail_link(self, first: str, second: str) -> bool:
        """Routing-level link failure: tear the overlay link down and
        repair routes on both sides (what a failure detector does once it
        suspects the far end).  Returns ``False`` if already down."""
        pair = frozenset((first, second))
        if not self._link_up.get(pair, False):
            return False
        self._link_up[pair] = False
        self._down_overlay_links += 1
        if self.tracer is not None:
            self.tracer.note_anomaly(f"link_down:{first}-{second}", self.sim.now)
        self.fabric.disconnect(first, second)
        self.metrics.counter("cluster.link_failures").increment()
        for callback in self._link_callbacks:
            callback("failed", first, second, self.sim.now)
        return True

    def restore_link(self, first: str, second: str) -> bool:
        """Re-join a torn-down overlay link; the surviving subscription
        set re-advertises across it so routing state converges to what a
        freshly built topology would hold.  Returns ``False`` if up."""
        pair = frozenset((first, second))
        if pair not in self.intended_links or self._link_up.get(pair, False):
            return False
        self._link_up[pair] = True
        if self.fabric.allow_cycles:
            # Mesh mode: a restored edge is re-added even when a path
            # already exists — redundant paths are the point — and the
            # fabric's retopology repair recanonicalizes routes.
            self.fabric.connect(first, second)
        elif not self.fabric.path_exists(first, second):
            # The fabric's edge-merge advertisement is canonical (each
            # side crosses the restored link with issue-order-aware
            # pruning), so failback is an incremental merge — no
            # component rebuild — and still converges to exactly the
            # fresh-build snapshot.
            self.fabric.connect(first, second)
        else:
            # Rare: other restored links already reconnected the
            # endpoints; canonicalize the healed component the slow way.
            self.fabric.reroute_component(first)
        self._down_overlay_links -= 1
        self.metrics.counter("cluster.link_restores").increment()
        for callback in self._link_callbacks:
            callback("restored", first, second, self.sim.now)
        self._maybe_clear_anomaly()
        return True

    def overlay_link_is_up(self, first: str, second: str) -> bool:
        return self._link_up.get(frozenset((first, second)), False)

    @property
    def degraded(self) -> bool:
        """True while any broker is down or any overlay link is torn down."""
        return self._down_brokers > 0 or self._down_overlay_links > 0

    def _maybe_clear_anomaly(self) -> None:
        """Leave the tracer's always-sample window once the cluster is
        healthy again: all brokers up, all overlay links restored, and no
        physical link still forced down."""
        if self.tracer is None or self.degraded:
            return
        if self.network.down_links():
            return
        self.tracer.clear_anomaly()

    def _trace_lost_batch(
        self,
        entries: Iterable[Tuple[float, EventEnvelope]],
        broker_name: str,
        cause: str,
    ) -> None:
        """Terminal drop spans for every traced envelope in a lost batch."""
        tracer = self.tracer
        if tracer is None:
            return
        now = self.sim.now
        broker = self.brokers[broker_name]
        for _enqueued_at, envelope in entries:
            if envelope.trace is not None:
                tracer.record_drop(
                    envelope.trace,
                    now,
                    broker_name,
                    cause=cause,
                    incarnation=broker.incarnation,
                    hops=envelope.hops,
                )

    def _on_network_drop(self, message: Message) -> None:
        """Network drop listener: a dropped ``event.forward`` (or
        ``event.forward_batch``) carrying traced envelopes becomes one
        terminal drop span *per traced member* naming the link and the
        reason (downed link vs gone destination vs random loss)."""
        if message.kind == "event.forward":
            envelopes = (message.payload,)
        elif message.kind == "event.forward_batch":
            envelopes = tuple(message.payload.envelopes)
        else:
            return
        if all(getattr(envelope, "trace", None) is None for envelope in envelopes):
            return
        if not self.network.has_node(message.destination):
            reason = "destination_down"
        elif not self.network.link_is_up(message.source, message.destination):
            reason = "link_down"
        else:
            reason = "loss"
        now = self.sim.now
        for envelope in envelopes:
            trace = getattr(envelope, "trace", None)
            if trace is None:
                continue
            self.tracer.record_drop(
                trace,
                now,
                message.source,
                cause="forward_dropped",
                link=f"{message.source}->{message.destination}",
                reason=reason,
                hops=envelope.hops,
            )
        self.tracer.note_anomaly(
            f"forward_dropped:{message.source}->{message.destination}", now
        )

    def _count_lost(self, broker: BrokerProcess, count: int) -> None:
        if count <= 0:
            return
        broker.stats.events_lost += count
        self.metrics.counter("cluster.events_lost").increment(count)

    def _receive_heartbeat(self, broker: BrokerProcess, message: Message) -> None:
        if self._detector is not None and broker.up:
            self._detector.heartbeat_received(broker.name, message.source)

    # -- event flow --------------------------------------------------------

    def publish(self, broker_name: str, event: Event, attempt: int = 0) -> None:
        """Enqueue an event into a broker's mailbox at the current sim time.

        Publishing to a crashed broker is a counted drop
        (``cluster.publishes_dropped``): the client's connection target is
        simply gone, exactly the unavailability C2 measures.  With a
        :class:`~repro.cluster.durable.DurabilityManager` attached, the
        publication is instead *deferred* — logged now, replayed when the
        broker recovers — and ``attempt`` (used by replays) keys the mesh
        dedup so a redelivery traverses the overlay again.
        """
        broker = self._broker(broker_name)
        now = self.sim.now
        trace = None
        if self.tracer is not None:
            trace = self.tracer.begin_trace(event, broker_name, now)
        durability = self._durability
        if not broker.up:
            if durability is not None:
                durability.record_deferred(broker_name, event, now)
                self.metrics.counter("cluster.publishes_deferred").increment()
                if trace is not None:
                    self.tracer.record_drop(
                        trace,
                        now,
                        broker_name,
                        cause="publish_deferred",
                        definite=False,
                    )
                return
            self.metrics.counter("cluster.publishes_dropped").increment()
            if trace is not None:
                self.tracer.record_drop(
                    trace, now, broker_name, cause="publish_target_down"
                )
            return
        if durability is not None and attempt == 0:
            durability.record_publish(broker_name, event, now)
        envelope = EventEnvelope(
            event=event, origin_time=now, trace=trace, attempt=attempt
        )
        if broker.seen is not None:
            # Register the ingress sighting so a mesh cycle looping the
            # event back to its origin broker is suppressed there.
            broker.seen.first_sighting((event.event_id, attempt), now)
        self._enqueue(broker, envelope)

    def publish_at(self, time: float, broker_name: str, event: Event) -> None:
        """Schedule a publication at an absolute simulation time."""
        self.sim.schedule_at(
            time,
            lambda _engine: self.publish(broker_name, event),
            label=f"publish:{broker_name}",
        )

    def publish_many(self, broker_name: str, events: Iterable[Event]) -> int:
        """Enqueue a batch of events as ONE mailbox entry at a broker.

        Delivery-identical to :meth:`publish` in a loop (same traces, same
        per-event delivery sets and callbacks, pinned by the property
        suite) but the whole batch pays one mailbox entry, one dispatch
        and one service-cycle overhead, is matched through the batched
        engine path, and its forwards coalesce per next-hop link.
        Publishing to a crashed broker drops the entire batch (counted in
        ``cluster.publishes_dropped``, one drop span per sampled trace) —
        or defers it, when a durability manager is attached.  Returns the
        number of events enqueued (0 when the broker is down or the batch
        is empty).
        """
        broker = self._broker(broker_name)
        batch = list(events)
        if not batch:
            return 0
        now = self.sim.now
        tracer = self.tracer
        traces: List[Optional[TraceContext]]
        if tracer is not None:
            traces = [tracer.begin_trace(event, broker_name, now) for event in batch]
        else:
            traces = [None] * len(batch)
        durability = self._durability
        if not broker.up:
            if durability is not None:
                for event in batch:
                    durability.record_deferred(broker_name, event, now)
                self.metrics.counter("cluster.publishes_deferred").increment(
                    len(batch)
                )
                if tracer is not None:
                    for trace in traces:
                        if trace is not None:
                            tracer.record_drop(
                                trace,
                                now,
                                broker_name,
                                cause="publish_deferred",
                                definite=False,
                            )
                return 0
            self.metrics.counter("cluster.publishes_dropped").increment(len(batch))
            if tracer is not None:
                for trace in traces:
                    if trace is not None:
                        tracer.record_drop(
                            trace, now, broker_name, cause="publish_target_down"
                        )
            return 0
        if durability is not None:
            for event in batch:
                durability.record_publish(broker_name, event, now)
        envelopes = [
            EventEnvelope(event=event, origin_time=now, trace=trace)
            for event, trace in zip(batch, traces)
        ]
        if broker.seen is not None:
            for event in batch:
                broker.seen.first_sighting((event.event_id, 0), now)
        self._enqueue_batch(broker, envelopes)
        return len(batch)

    def publish_many_at(
        self, time: float, broker_name: str, events: Iterable[Event]
    ) -> None:
        """Schedule a batched publication at an absolute simulation time."""
        batch = list(events)
        self.sim.schedule_at(
            time,
            lambda _engine: self.publish_many(broker_name, batch),
            label=f"publish_many:{broker_name}",
        )

    def _enqueue(self, broker: BrokerProcess, envelope: EventEnvelope) -> None:
        broker.mailbox.append((self.sim.now, envelope))
        broker._queued_events += 1
        broker.stats.events_enqueued += 1
        self.metrics.counter("cluster.events_enqueued").increment()
        self.metrics.gauge(f"cluster.queue_depth.{broker.name}").set(
            broker.queue_depth
        )
        self._start_service(broker)

    def _enqueue_batch(
        self, broker: BrokerProcess, envelopes: List[EventEnvelope]
    ) -> None:
        """Enqueue envelopes as one mailbox entry (singletons take the
        per-event entry shape so the wire/queue format stays unchanged)."""
        if len(envelopes) == 1:
            self._enqueue(broker, envelopes[0])
            return
        broker.mailbox.append((self.sim.now, BatchEnvelope(envelopes)))
        broker._queued_events += len(envelopes)
        broker.stats.events_enqueued += len(envelopes)
        self.metrics.counter("cluster.events_enqueued").increment(len(envelopes))
        self.metrics.gauge(f"cluster.queue_depth.{broker.name}").set(
            broker.queue_depth
        )
        self._start_service(broker)

    def _suppress_duplicate(
        self, broker: BrokerProcess, envelope: EventEnvelope
    ) -> None:
        """Account one duplicate-suppressed forward arrival.

        Suppression is *not* a loss: it is counted under its own
        ``network.duplicates_suppressed`` metric (never through the
        network drop path, whose listeners would mis-attribute it), and a
        traced envelope gets a benign terminal ``dedup`` span so the
        suppressed branch of its walk stays explained."""
        broker.stats.duplicates_suppressed += 1
        self.network.note_duplicate_suppressed(
            envelope.came_from, broker.name, kind="event.forward"
        )
        if self.tracer is not None and envelope.trace is not None:
            now = self.sim.now
            self.tracer.record_span(
                "dedup",
                envelope.trace,
                start=now,
                end=now,
                broker=broker.name,
                hops=envelope.hops,
                attempt=envelope.attempt,
            )

    def _accept_forward(
        self, broker: BrokerProcess, envelope: EventEnvelope
    ) -> bool:
        """Mesh dedup gate: False (and accounted) for a duplicate arrival."""
        seen = broker.seen
        if seen is None:
            return True
        if seen.first_sighting(
            (envelope.event.event_id, envelope.attempt), self.sim.now
        ):
            return True
        self._suppress_duplicate(broker, envelope)
        return False

    def _receive_forward(self, broker: BrokerProcess, envelope: EventEnvelope) -> None:
        if not broker.up:  # pragma: no cover - the network drops these first
            self._count_lost(broker, 1)
            if self.tracer is not None and envelope.trace is not None:
                self.tracer.record_drop(
                    envelope.trace,
                    self.sim.now,
                    broker.name,
                    cause="arrived_at_down_broker",
                )
            return
        if not self._accept_forward(broker, envelope):
            return
        broker.stats.forwards_received += 1
        self._enqueue(broker, envelope)

    def _receive_forward_batch(
        self, broker: BrokerProcess, batch: BatchEnvelope
    ) -> None:
        envelopes = batch.envelopes
        if not broker.up:  # pragma: no cover - the network drops these first
            self._count_lost(broker, len(envelopes))
            if self.tracer is not None:
                for envelope in envelopes:
                    if envelope.trace is not None:
                        self.tracer.record_drop(
                            envelope.trace,
                            self.sim.now,
                            broker.name,
                            cause="arrived_at_down_broker",
                        )
            return
        if broker.seen is not None:
            envelopes = [
                envelope
                for envelope in envelopes
                if self._accept_forward(broker, envelope)
            ]
            if not envelopes:
                return
        broker.stats.forwards_received += len(envelopes)
        self._enqueue_batch(broker, envelopes)

    def _start_service(self, broker: BrokerProcess) -> None:
        if not broker.up or broker.busy or not broker.mailbox:
            return
        broker.busy = True
        # Defer the batch draw by one zero-delay dispatch event: the sim
        # fires same-time events FIFO, so publications landing at the same
        # instant coalesce into one service cycle instead of the first
        # arrival starting a batch of one.  The incarnation stamp makes
        # dispatches scheduled by a previous life of the broker inert.
        incarnation = broker.incarnation
        self.sim.schedule_in(
            0.0,
            lambda _engine: self._dispatch(broker, incarnation),
            label=f"dispatch:{broker.name}",
        )

    def _dispatch(self, broker: BrokerProcess, incarnation: int) -> None:
        if not broker.up or incarnation != broker.incarnation:
            return
        if not broker.mailbox:
            broker.busy = False
            return
        # The batch is drawn (and leaves the queue) when service begins;
        # its size fixes the cycle's service time.  batch_size counts
        # *mailbox entries*, so a publish_many batch (one entry) is served
        # whole in one cycle; `_in_service` holds the flattened per-event
        # view so crash accounting counts a lost in-service batch by
        # events, exactly as the per-event path did.
        entries = [
            broker.mailbox.popleft()
            for _ in range(min(broker.batch_size, len(broker.mailbox)))
        ]
        batch = _flatten_entries(entries)
        broker._queued_events -= len(batch)
        broker._in_service = batch
        service_time = broker.batch_overhead + len(batch) / broker.service_rate
        start = self.sim.now
        broker.stats.service_cycles += 1
        broker.stats.busy_time += service_time
        self.metrics.gauge(f"cluster.queue_depth.{broker.name}").set(
            broker.queue_depth
        )
        self.metrics.histogram("cluster.service_batch").observe(len(batch))
        tracer = self.tracer
        for enqueued_at, envelope in batch:
            self.metrics.histogram("cluster.wait_time").observe(start - enqueued_at)
            if tracer is not None and envelope.trace is not None:
                # Mailbox wait: from enqueue to this service cycle's start.
                envelope.trace.parent_id = tracer.record_span(
                    "queue",
                    envelope.trace,
                    start=enqueued_at,
                    end=start,
                    broker=broker.name,
                    batch_size=len(batch),
                    hops=envelope.hops,
                    incarnation=broker.incarnation,
                )

        def complete(_engine: SimulationEngine) -> None:
            self._complete_service(broker, batch, incarnation, start)

        self.sim.schedule_in(service_time, complete, label=f"serve:{broker.name}")

    def _complete_service(
        self,
        broker: BrokerProcess,
        batch: List[Tuple[float, EventEnvelope]],
        incarnation: int,
        started_at: float,
    ) -> None:
        if not broker.up or incarnation != broker.incarnation:
            # The broker died mid-service; the batch was counted lost at
            # crash time and must not produce deliveries from beyond.
            return
        broker._in_service = None
        now = self.sim.now
        tracer = self.tracer
        events = [envelope.event for _at, envelope in batch]
        # Cross-cycle probe/result caching; the cache self-invalidates on
        # any engine mutation, so delivery results equal match_batch's.
        matches = broker.engine.match_batch_cached(events, broker._match_cache)
        deliveries = 0
        outboxes: Dict[str, List[EventEnvelope]] = {}
        # Vectorized fan-out: metric handles hoisted out of the loop, one
        # observe_many per event (every subscriber shares the envelope's
        # hop count and origin time), and per-delivery callbacks skipped
        # wholesale when only batch callbacks are registered.
        queue_delay = self.metrics.histogram("cluster.queue_delay")
        delivery_hops = self.metrics.histogram("cluster.delivery_hops")
        e2e_delay = self.metrics.histogram("cluster.e2e_delay")
        per_delivery = self._delivery_callbacks
        per_batch = self._delivery_batch_callbacks
        for (enqueued_at, envelope), row in zip(batch, matches):
            deliveries += len(row)
            queue_delay.observe(now - enqueued_at)
            if tracer is not None and envelope.trace is not None:
                match_span = tracer.record_span(
                    "match",
                    envelope.trace,
                    start=started_at,
                    end=now,
                    broker=broker.name,
                    batch_size=len(batch),
                    matches=len(row),
                    incarnation=broker.incarnation,
                )
                envelope.trace.parent_id = match_span
                if row:
                    subscribers = [s.subscription_id for s in row[:16]]
                    tracer.record_span(
                        "deliver",
                        envelope.trace,
                        start=now,
                        end=now,
                        broker=broker.name,
                        parent_id=match_span,
                        deliveries=len(row),
                        subscriptions=subscribers,
                        truncated=len(row) > 16,
                    )
            if row:
                fan_out = len(row)
                delivery_hops.observe_many(envelope.hops, fan_out)
                e2e_delay.observe_many(now - envelope.origin_time, fan_out)
                for batch_callback in per_batch:
                    batch_callback(broker.name, envelope.event, row)
                if per_delivery:
                    event = envelope.event
                    for subscription in row:
                        for callback in per_delivery:
                            callback(
                                broker.name,
                                subscription.subscriber,
                                event,
                                subscription,
                            )
            self._forward_collect(broker, envelope, outboxes)
        if outboxes:
            self._flush_forwards(broker, outboxes)
        durability = self._durability
        if durability is not None:
            # Ingress envelopes (no came_from) are this broker's logged
            # publications: served means applied — a crash from here on
            # no longer owes them a replay *from this broker's log*.
            for _enqueued_at, envelope in batch:
                if envelope.came_from is None:
                    durability.mark_applied(broker.name, envelope.event.event_id)
        broker.stats.events_processed += len(batch)
        broker.stats.deliveries += deliveries
        self.metrics.counter("cluster.events_processed").increment(len(batch))
        self.metrics.counter("cluster.deliveries").increment(deliveries)
        broker.busy = False
        self._start_service(broker)

    def _forward_collect(
        self,
        broker: BrokerProcess,
        envelope: EventEnvelope,
        outboxes: Dict[str, List[EventEnvelope]],
    ) -> None:
        """Resolve the served event's next hops and stage it per link.

        Next hops are resolved at each event's own point in the service
        order — through the fabric's versioned route-set cache, so a
        control-plane mutation fired by an earlier event's delivery
        callback (a mid-batch retraction) invalidates cached routes
        before this event's fan-out is computed, exactly matching the
        sequential per-event path.  Forward accounting stays per-event.
        """
        next_hops = self.fabric.next_hops(
            broker.name, envelope.event, came_from=envelope.came_from
        )
        tracer = self.tracer
        trace = envelope.trace
        if tracer is not None and trace is not None and self.degraded:
            # Served while routing was degraded: routes the healthy fabric
            # would hold may be pruned, silently ending this event's walk
            # short of some subscribers.  The at-risk marker keeps such
            # losses attributable — harmless if delivery still completes.
            tracer.record_drop(
                trace,
                self.sim.now,
                broker.name,
                cause="routing_partitioned",
                definite=False,
                down_brokers=self._down_brokers,
                down_overlay_links=self._down_overlay_links,
            )
        if not next_hops:
            return
        for neighbour in next_hops:
            broker.stats.events_forwarded += 1
            self.metrics.counter("cluster.events_forwarded").increment()
            staged = outboxes.get(neighbour)
            if staged is None:
                staged = outboxes[neighbour] = []
            staged.append(envelope)

    def _flush_forwards(
        self, broker: BrokerProcess, outboxes: Dict[str, List[EventEnvelope]]
    ) -> None:
        """Send each link's staged events as one coalesced message.

        One network message (and one latency charge) per link per service
        cycle; every traced member still gets its own ``forward`` span
        (annotated with the coalesced count) and a forked child context,
        so span chains and loss attribution stay per-event.  A link with
        a single staged event uses the legacy ``event.forward`` shape.
        """
        tracer = self.tracer
        now = self.sim.now
        for neighbour in sorted(outboxes):
            parents = outboxes[neighbour]
            total_bytes = sum(parent.event.size_bytes() for parent in parents)
            link = None
            children: List[EventEnvelope] = []
            for parent in parents:
                child = None
                if tracer is not None and parent.trace is not None:
                    if link is None:
                        link = self.network.link_for(broker.name, neighbour)
                    span_id = tracer.record_span(
                        "forward",
                        parent.trace,
                        start=now,
                        end=now + link.transfer_time(total_bytes),
                        broker=broker.name,
                        link=f"{broker.name}->{neighbour}",
                        latency=link.latency,
                        hops=parent.hops + 1,
                        coalesced=len(parents),
                    )
                    child = tracer.fork(parent.trace, span_id)
                children.append(
                    EventEnvelope(
                        event=parent.event,
                        origin_time=parent.origin_time,
                        hops=parent.hops + 1,
                        came_from=broker.name,
                        trace=child,
                        attempt=parent.attempt,
                    )
                )
            if len(children) == 1:
                self.network.send(
                    broker.name,
                    neighbour,
                    kind="event.forward",
                    payload=children[0],
                    size_bytes=total_bytes,
                )
            else:
                self.network.send(
                    broker.name,
                    neighbour,
                    kind="event.forward_batch",
                    payload=BatchEnvelope(children),
                    size_bytes=total_bytes,
                )

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drive the simulation; returns the number of sim events executed."""
        return self.sim.run(until=until, max_events=max_events)

    # -- reporting ---------------------------------------------------------

    def throughput(self) -> float:
        """Events processed per simulated second (cluster-wide)."""
        if self.sim.now <= 0:
            return 0.0
        processed = self.metrics.counter("cluster.events_processed").value
        return processed / self.sim.now

    def stats_by_broker(self) -> Dict[str, Dict[str, float]]:
        return {
            name: broker.stats.as_dict()
            for name, broker in sorted(self.brokers.items())
        }

    def routing_stats_by_broker(self) -> Dict[str, Dict[str, int]]:
        """Control-plane accounting (subscription propagation) per broker."""
        return {
            name: broker.node.stats.as_dict()
            for name, broker in sorted(self.brokers.items())
        }

    def total_routing_state(self) -> int:
        return self.fabric.total_routing_state()


# Topologies whose edge lists contain cycles: clusters carrying them must
# be built with ``allow_cycles=True`` (redundant-mesh routing + dedup).
CYCLIC_TOPOLOGIES = ("ring", "mesh")


def topology_is_cyclic(topology: str) -> bool:
    """True for topology shapes that need a cycle-tolerant fabric."""
    return topology in CYCLIC_TOPOLOGIES


def topology_edges(topology: str, num_brokers: int) -> List[Tuple[int, int]]:
    """The edge list of a ``line``/``star``/``tree``/``ring``/``mesh``
    topology over broker indices ``0..num_brokers-1``.

    This is the single topology-shape definition shared by the sim-clock
    cluster (:func:`build_cluster_topology`) and the wire launcher
    (:func:`repro.net.launcher.topology_specs`), so the oracle compares the
    same graph on both paths.  ``tree`` is binary, filled level by level;
    ``star`` puts broker 0 at the hub.  ``ring`` is the line plus its
    closing edge (2-connected: any single link loss leaves a path);
    ``mesh`` adds a chord to every second neighbour on top of the ring
    (survives any single broker loss too).  Both degenerate to a line
    below 3 brokers.
    """
    if num_brokers < 1:
        raise ValueError("num_brokers must be at least 1")
    if topology == "line":
        return [(index, index + 1) for index in range(num_brokers - 1)]
    if topology == "star":
        return [(0, index) for index in range(1, num_brokers)]
    if topology == "tree":
        return [((index - 1) // 2, index) for index in range(1, num_brokers)]
    if topology == "ring":
        if num_brokers < 3:
            return [(index, index + 1) for index in range(num_brokers - 1)]
        return [(index, (index + 1) % num_brokers) for index in range(num_brokers)]
    if topology == "mesh":
        if num_brokers < 3:
            return [(index, index + 1) for index in range(num_brokers - 1)]
        seen: Set[Tuple[int, int]] = set()
        edges: List[Tuple[int, int]] = []
        for index in range(num_brokers):
            for step in (1, 2):
                other = (index + step) % num_brokers
                if other == index:
                    continue
                edge = (min(index, other), max(index, other))
                if edge not in seen:
                    seen.add(edge)
                    edges.append(edge)
        return edges
    raise ValueError(f"unknown topology {topology!r} (line|star|tree|ring|mesh)")


def build_cluster_topology(
    topology: str,
    num_brokers: int,
    cluster: BrokerCluster,
    latency: Optional[float] = None,
) -> List[str]:
    """Add ``num_brokers`` brokers wired as
    ``line``/``star``/``tree``/``ring``/``mesh``.

    Returns the broker names in creation order (shapes defined by
    :func:`topology_edges`).  Cyclic shapes require a cluster built with
    ``allow_cycles=True`` (checked here so the failure is immediate and
    named, not a confusing acyclicity error mid-wiring).
    """
    if topology_is_cyclic(topology) and not cluster.allow_cycles:
        raise ValueError(
            f"topology {topology!r} is cyclic: build the cluster with "
            "allow_cycles=True"
        )
    edges = topology_edges(topology, num_brokers)
    names = [f"b{index}" for index in range(num_brokers)]
    for name in names:
        cluster.add_broker(name)
    for left, right in edges:
        cluster.connect(names[left], names[right], latency=latency)
    return names
