"""The metric catalogue and what the traced run asserts about it.

Names, units, directions and bounds live in ``BENCHMARK.json`` at the repo
root and are loaded from there, so the harness emits and ``run.py
--list-metrics`` prints exactly what the driver was told; only the
one-line definitions (:data:`WHAT`) are kept here.  Layer metrics are
named after this repo's modules; ``*_us`` is a layer's self time in
microseconds per published event (``add``/``remove``/``subscribe``/
``unsubscribe``: per subscription), corrected to reference machine speed
like the end-to-end metrics.
"""

from __future__ import annotations

import json
import os
from typing import List, NamedTuple, Optional

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Allowed worsening as a share of the parent's median (gated metrics).
    bound: Optional[float]


def _load() -> dict:
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


_SPEC = _load()
END_TO_END: List[Metric] = [
    Metric(m["name"], m["unit"], m["better"], m["bound"]) for m in _SPEC["end_to_end"]
]
PER_LAYER: List[Metric] = [
    Metric(m["name"], m["unit"], m["better"], None) for m in _SPEC["per_layer"]
]

#: Metric name -> one-line definition (``--list-metrics``).
WHAT = {
    "setup_s": (
        "cold start to first publish possible: build brokers, place every "
        "subscription, routing converged (median of 4 set-ups in the run)"
    ),
    "events_per_s": (
        "published events fully delivered per wall second of a round "
        "(sim_churn: the round includes its subscribe/unsubscribe calls)"
    ),
    "latency_p50_ms": (
        "wire: publisher stamp to subscriber receive, median over the round's "
        "deliveries; sim: wall time of one publish_many + run()"
    ),
    "peak_rss_mb": "harness-process high-water RSS after the last measured round",
    "net.client.send_us": "BrokerClient.publish/publish_many self time",
    "net.client.latency_p90_ms": "delivery latency p90 (median over rounds)",
    "net.client.latency_p99_ms": "delivery latency p99 (median over rounds)",
    "net.wire.encode_us": "frame constructors + encode_frame self time",
    "net.wire.decode_us": "FrameDecoder.feed + decode_payload/decode_event self time",
    "net.wire.frames_per_event": "frames built per event (approximate: chunking)",
    "net.wire.bytes_per_event": "frame bytes built per event",
    "net.msgpack_lite.pack_us": "packb self time",
    "net.msgpack_lite.unpack_us": "unpackb self time",
    "net.server.residual_us": (
        "CPU per event outside every traced callable: dispatch, session "
        "fan-out, writer queues, streams, syscalls (wire workloads)"
    ),
    "net.server.forwards_per_event": "broker-link forwards per event",
    "net.server.setup_us_per_sub": "set-up time per subscription placed",
    "pubsub.matching.match_us": "match/match_batch/match_batch_cached self time",
    "pubsub.matching.probe_us": "matches_any/matches_any_cached self time",
    "pubsub.matching.pairs_per_event": "delivered (event, subscription) pairs per event",
    "pubsub.matching.cache_resets": "BatchMatchCache + RouteProbeCache resets per measured round",
    "pubsub.matching.add_us": "MatchingEngine.add self time per subscription placed",
    "pubsub.matching.remove_us": "MatchingEngine.remove self time per subscription retracted",
    "pubsub.broker.route_us": "Broker.interested_neighbours self time",
    "pubsub.subscriptions.covering_us": "CoveringIndex covers_of/first_cover/covered_by self time",
    "cluster.routing.subscribe_us": "RoutingFabric.subscribe(_many)_at self time per subscription",
    "cluster.routing.unsubscribe_us": (
        "RoutingFabric.unsubscribe(_many)_at self time per subscription"
    ),
    "cluster.routing.next_hops_us": "RoutingFabric.next_hops self time",
    "cluster.routing.state_entries": "total_routing_state() after the measured rounds",
    "cluster.routing.pruned_ratio": "advertisement hops pruned by covering / hops considered",
    "cluster.routing.readmitted_per_unsub": "routes readmitted per unsubscription",
    "cluster.broker_cluster.publish_us": "BrokerCluster.publish_many self time",
    "cluster.broker_cluster.serve_us": "service loop (dispatch/serve callbacks) self time",
    "cluster.broker_cluster.forwards_per_event": "inter-broker forwards per event",
    "cluster.broker_cluster.duplicates_per_event": "mesh duplicates suppressed per event",
    "cluster.durable.dedup_us": "DedupIndex.first_sighting self time",
    "sim.engine.dispatch_us": "SimulationEngine.run self time (heap, clock)",
    "sim.network.send_us": (
        "SimulatedNetwork.send + delivery callback (forward receipt) self time"
    ),
    "sim.metrics.observe_us": "Histogram.observe/observe_many self time",
    "sim.metrics.histogram_samples": (
        "samples retained by all histograms after the measured rounds"
    ),
    "ledger.cpu_us_per_event": "process + children CPU per event, untraced rounds",
    "ledger.traced_share": "sum of layer self times / ledger.cpu_us_per_event",
    "ledger.trace_overhead_pct": "CPU per event added by the span wrappers",
    "machine.sentinel_mops": "sentinel kernel speed during the run (median)",
    "machine.round_iqr_pct": "IQR of per-round corrected events/s, share of median",
    "raw.events_per_s": "events_per_s before sentinel correction",
    "raw.latency_p50_ms": "latency_p50_ms before sentinel correction",
    "raw.setup_s": "setup_s before sentinel correction (one cold set-up)",
}

#: Layer span name (see trace.TARGETS) -> the ``*_us`` metric it feeds.
SPAN_METRIC = {
    "net.client.send": "net.client.send_us",
    "net.wire.encode": "net.wire.encode_us",
    "net.wire.decode": "net.wire.decode_us",
    "net.msgpack_lite.pack": "net.msgpack_lite.pack_us",
    "net.msgpack_lite.unpack": "net.msgpack_lite.unpack_us",
    "pubsub.matching.match": "pubsub.matching.match_us",
    "pubsub.matching.probe": "pubsub.matching.probe_us",
    "pubsub.matching.add": "pubsub.matching.add_us",
    "pubsub.matching.remove": "pubsub.matching.remove_us",
    "pubsub.broker.route": "pubsub.broker.route_us",
    "pubsub.subscriptions.covering": "pubsub.subscriptions.covering_us",
    "cluster.routing.subscribe": "cluster.routing.subscribe_us",
    "cluster.routing.unsubscribe": "cluster.routing.unsubscribe_us",
    "cluster.routing.next_hops": "cluster.routing.next_hops_us",
    "cluster.broker_cluster.publish": "cluster.broker_cluster.publish_us",
    "cluster.broker_cluster.serve": "cluster.broker_cluster.serve_us",
    "cluster.durable.dedup": "cluster.durable.dedup_us",
    "sim.engine.dispatch": "sim.engine.dispatch_us",
    "sim.network.send": "sim.network.send_us",
    "sim.metrics.observe": "sim.metrics.observe_us",
}

#: Layers reported per subscription placed / retracted, not per event.
PER_SUBSCRIBE = ("pubsub.matching.add", "cluster.routing.subscribe")
PER_UNSUBSCRIBE = ("pubsub.matching.remove", "cluster.routing.unsubscribe")

#: Dominance assertions of the traced run: workload -> (layer spans whose
#: summed share of CPU per event must be >= / <= the share).  A failure
#: means the workload no longer measures what its name says: resize the
#: workload, not the assertion.
CODEC_FRAMING = ("net.msgpack_lite.pack", "net.msgpack_lite.unpack",
                 "net.wire.encode", "net.wire.decode", "RESIDUAL")
DOMINANCE = {
    "wire_pipelined": [
        (CODEC_FRAMING, ">=", 0.60),
        (("pubsub.matching.match",), "<=", 0.15),
    ],
    "sim_fanout": [
        (
            ("pubsub.matching.match", "pubsub.matching.probe",
             "cluster.broker_cluster.serve", "sim.metrics.observe"),
            ">=", 0.60,
        ),
    ],
    "sim_churn": [
        (
            ("cluster.routing.subscribe", "cluster.routing.unsubscribe",
             "cluster.routing.next_hops", "pubsub.matching.add",
             "pubsub.matching.remove", "pubsub.subscriptions.covering"),
            ">=", 0.50,
        ),
    ],
}
MAX_TRACE_OVERHEAD_PCT = 25.0
LEDGER_TOLERANCE = 0.02
