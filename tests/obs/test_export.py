"""Exporters: Prometheus text, span dumps, span trees, timing tables."""

from __future__ import annotations

import json

from repro.cluster.broker_cluster import BrokerCluster
from repro.obs.export import (
    broker_timing_breakdown,
    dump_spans,
    format_span_tree,
    render_prometheus,
    spans_payload,
)
from repro.obs.trace import Tracer
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Operator, Predicate, Subscription
from repro.sim.metrics import MetricsRegistry


def _sample_tracer():
    tracer = Tracer()
    trace = tracer.begin_trace(
        Event(event_type="t", attributes={}, event_id="e1"), "b0", 0.0
    )
    trace.parent_id = tracer.record_span(
        "queue", trace, start=0.0, end=0.25, broker="b0", batch_size=2
    )
    trace.parent_id = tracer.record_span(
        "match", trace, start=0.25, end=0.3, broker="b0", matches=1
    )
    forward_id = tracer.record_span(
        "forward", trace, start=0.3, end=0.4, broker="b0", link="b0->b1"
    )
    child = tracer.fork(trace, forward_id)
    tracer.record_drop(child, 0.4, "b1", cause="link_down", link="b0->b1")
    return tracer


class TestPrometheus:
    def test_renders_all_metric_kinds(self):
        registry = MetricsRegistry()
        registry.counter("cluster.deliveries").increment(7)
        registry.gauge("cluster.queue_depth").set(3.0)
        histogram = registry.histogram("cluster.e2e_delay")
        for value in (0.1, 0.2, 0.3):
            histogram.observe(value)
        text = render_prometheus(registry)
        assert "# TYPE repro_cluster_deliveries counter" in text
        assert "repro_cluster_deliveries 7" in text
        assert "# TYPE repro_cluster_queue_depth gauge" in text
        assert "# TYPE repro_cluster_e2e_delay summary" in text
        assert 'repro_cluster_e2e_delay{quantile="0.95"}' in text
        assert "repro_cluster_e2e_delay_count 3" in text
        assert text.endswith("\n")

    def test_accepts_snapshot_dict_and_custom_prefix(self):
        registry = MetricsRegistry()
        registry.counter("a.b").increment()
        text = render_prometheus(registry.snapshot(), prefix="x_")
        assert "x_a_b 1" in text

    def test_name_sanitization(self):
        registry = MetricsRegistry()
        registry.counter("network.edge.a->b.messages").increment()
        text = render_prometheus(registry)
        assert "repro_network_edge_a__b_messages 1" in text


class TestSpanDump:
    def test_payload_shape(self):
        tracer = _sample_tracer()
        payload = spans_payload(tracer, extra={"experiment": "C2"})
        assert payload["experiment"] == "C2"
        assert payload["stats"]["sampled_traces"] == 1
        names = [row["name"] for row in payload["spans"]]
        assert names == ["publish", "queue", "match", "forward", "drop"]
        drop = payload["spans"][-1]
        assert drop["status"] == "dropped"
        assert drop["cause"] == "link_down"
        assert drop["attrs"]["link"] == "b0->b1"

    def test_dump_round_trips_through_json(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "spans.json"
        dump_spans(tracer, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == spans_payload(tracer)


class TestSpanTree:
    def test_tree_indentation_follows_parents(self):
        tracer = _sample_tracer()
        text = format_span_tree(tracer.spans_for_event("e1"))
        lines = text.splitlines()
        assert lines[0].startswith("publish")
        assert lines[1].startswith("  queue")
        assert lines[2].startswith("    match")
        assert lines[3].startswith("      forward")
        assert lines[4].startswith("        drop")
        assert "cause=link_down" in lines[4]
        assert "DROPPED" in lines[4]
        assert "dur=250.00ms" in lines[1]

    def test_orphan_spans_render_as_roots(self):
        tracer = _sample_tracer()
        spans = tracer.spans_for_event("e1")
        # Drop the root: the queue span's parent no longer exists, so it
        # (and its subtree) must still render instead of disappearing.
        text = format_span_tree(spans[1:])
        assert text.splitlines()[0].startswith("queue")


class TestTimingBreakdown:
    def test_rows_reflect_broker_stats(self):
        cluster = BrokerCluster(service_rate=100.0, batch_size=4)
        for name in ("a", "b"):
            cluster.add_broker(name)
        cluster.connect("a", "b")
        cluster.subscribe(
            "b",
            Subscription(
                event_type="t",
                predicates=(Predicate("k", Operator.EQ, 1),),
                subscriber="u",
            ),
        )
        for _ in range(8):
            cluster.publish("a", Event(event_type="t", attributes={"k": 1}))
        cluster.run()
        rows = broker_timing_breakdown(cluster)
        assert [row["broker"] for row in rows] == ["a", "b"]
        ingress, egress = rows
        assert ingress["enqueued"] == 8
        assert ingress["fwd_out"] == 8
        assert egress["fwd_in"] == 8
        assert egress["deliveries"] == 8
        assert egress["util"] > 0
        assert all(row["queued"] == 0 for row in rows)
