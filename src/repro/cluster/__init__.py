"""Cluster layer: the distributed message plane.

Scales the single-process pub/sub substrate along the axes the ROADMAP
names:

* :class:`~repro.cluster.routing.RoutingFabric` is the transport-agnostic
  routing core (subscription propagation with covering pruning and
  unsubscription repair, plus next-hop decisions), driven by the
  sim-clock cluster;
* :class:`~repro.cluster.broker_cluster.BrokerCluster` models brokers as
  mailbox-driven processes on the discrete-event simulator, each matching
  its local subscriptions in one
  :class:`~repro.pubsub.matching.MatchingEngine` — routed: events
  forward between brokers as latency-bearing network messages through the
  same mailbox machinery, yielding queue-delay, hop-count and end-to-end
  delivery-delay metrics for ``repro.experiments.cluster_scale``;
* :mod:`~repro.cluster.faults` + :mod:`~repro.cluster.recovery` are the
  fault-tolerance subsystem: scheduled broker crashes/restarts and link
  churn (:class:`~repro.cluster.faults.FaultPlan` /
  :class:`~repro.cluster.faults.FaultInjector`), heartbeat-driven failure
  detection with covering-aware route repair and rejoin re-advertisement
  (:class:`~repro.cluster.recovery.FailureDetector`), and the routing
  convergence oracle used by ``repro.experiments.cluster_churn``;
* :mod:`~repro.cluster.replication` + :mod:`~repro.cluster.durable` are
  the durability subsystem (PR 10): cyclic/redundant overlays (ring and
  mesh topologies with per-broker
  :class:`~repro.cluster.durable.DedupIndex` duplicate suppression),
  :class:`~repro.cluster.replication.ReplicationManager` keeping R
  replica homes per subscription with detector-driven failover/failback
  through the ordinary control plane, and
  :class:`~repro.cluster.durable.DurabilityManager` (per-broker
  :class:`~repro.cluster.durable.DurableLog`, deferred publishes, crash
  replay, subscriber-side dedup) — exactly-once observable delivery
  through crashes, asserted by C2's ``--mesh --replicate --replay``
  oracle.
"""

from repro.cluster.broker_cluster import (
    BrokerCluster,
    BrokerProcess,
    BrokerProcessStats,
    EventEnvelope,
    build_cluster_topology,
    topology_edges,
    topology_is_cyclic,
)
from repro.cluster.durable import DedupIndex, DurabilityManager, DurableLog
from repro.cluster.faults import FaultAction, FaultInjector, FaultPlan
from repro.cluster.replication import ReplicatedSubscription, ReplicationManager
from repro.cluster.recovery import (
    FailureDetector,
    rebuilt_routing_snapshot,
    routing_converged,
)
from repro.cluster.routing import RoutingFabric, SubscribeOutcome

__all__ = [
    "BrokerCluster",
    "BrokerProcess",
    "BrokerProcessStats",
    "DedupIndex",
    "DurabilityManager",
    "DurableLog",
    "EventEnvelope",
    "FailureDetector",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "ReplicatedSubscription",
    "ReplicationManager",
    "RoutingFabric",
    "SubscribeOutcome",
    "build_cluster_topology",
    "rebuilt_routing_snapshot",
    "routing_converged",
    "topology_edges",
    "topology_is_cyclic",
]
