"""Smoke tests for the experiment drivers at reduced scale.

Each driver is run once with a small workload; assertions check the
*shape* properties the paper reports rather than absolute values.
"""

import pytest

from repro.datasets.browsing import BrowsingDatasetConfig
from repro.experiments import (
    format_table,
    run_collaborative_experiment,
    run_content_video_experiment,
    run_flow_comparison,
    run_matching_scalability,
    run_push_pull_experiment,
    run_routing_scalability,
    run_topic_feed_experiment,
    run_update_filtering_experiment,
)
from repro.experiments.harness import ExperimentResult

TINY = BrowsingDatasetConfig(
    num_users=2,
    duration_days=3,
    num_content_servers=40,
    num_ad_servers=30,
    num_multimedia_servers=3,
    pages_per_server_mean=4,
    page_length_words=80,
    sessions_per_day=4.0,
    pages_per_session_mean=6.0,
    seed=5,
)


class TestHarness:
    def test_result_rows_and_columns(self):
        result = ExperimentResult(experiment_id="T", title="test")
        result.add_row(metric="a", value=1.0)
        result.add_row(metric="b", value=2.0)
        assert result.column("value") == [1.0, 2.0]
        assert result.row_for("metric", "b")["value"] == 2.0
        assert result.row_for("metric", "zzz") is None
        summary = result.summary()
        assert "[T] test" in summary

    def test_format_table_handles_empty_and_mixed(self):
        assert "(no rows)" in format_table([])
        table = format_table([{"a": 1.5, "b": None}, {"a": 20000.0, "c": "text"}])
        assert "1.500" in table and "20,000" in table and "text" in table


class TestE1TopicFeeds:
    def test_funnel_statistics_shape(self):
        result = run_topic_feed_experiment(config=TINY)
        by_metric = {row["metric"]: row["measured"] for row in result.rows}
        assert by_metric["total_requests"] > 0
        assert by_metric["distinct_servers"] > 0
        # Ad servers dominate request volume, as in the paper (70%).
        assert 0.4 <= by_metric["ad_request_fraction"] <= 0.9
        assert by_metric["distinct_feeds_discovered"] > 0
        assert by_metric["non_ad_servers"] + by_metric["ad_servers_visited"] == by_metric["distinct_servers"]
        assert by_metric["recommendations_per_user_per_day"] > 0
        assert result.paper["distinct_feeds_discovered"] == 424


class TestE2ContentVideo:
    def test_precision_improvement_shape(self):
        result = run_content_video_experiment(
            term_counts=(5, 30, 200), browsing_scale=0.08, k=100
        )
        rows = {int(row["n_terms"]): row for row in result.rows}
        assert set(rows) == {5, 30, 200}
        # The attention-derived query never hurts much and helps at N=30.
        assert rows[30]["improvement"] > 0
        assert rows[30]["improvement"] >= rows[5]["improvement"]
        assert rows[30]["precision_at_k"] > rows[30]["baseline_precision_at_k"]
        for row in rows.values():
            assert 0 <= row["query_terms_used"] <= row["n_terms"]


class TestFlowsAndFiltering:
    def test_distributed_design_is_private_and_crawl_free(self):
        result = run_flow_comparison(config=TINY)
        rows = {row["flow"]: row for row in result.rows}
        assert rows["1. attention uploads (msgs)"]["centralized"] > 0
        assert rows["1. attention uploads (msgs)"]["distributed"] == 0
        assert rows["1. attention uploaded (bytes)"]["distributed"] == 0
        assert rows["server crawl fetches"]["centralized"] > 0
        assert rows["server crawl fetches"]["distributed"] == 0
        assert rows["3. sub/unsub operations"]["distributed"] > 0

    def test_filtering_reduces_update_volume(self):
        result = run_update_filtering_experiment(config=TINY, max_updates_per_day=1.0,
                                                 unsubscribe_after_ignored=3)
        rows = {row["metric"]: row for row in result.rows}
        assert rows["updates_per_user_per_day"]["filtered"] <= rows["updates_per_user_per_day"]["unfiltered"]
        assert rows["auto_unsubscriptions"]["filtered"] >= rows["auto_unsubscriptions"]["unfiltered"]


class TestCollaborative:
    def test_collaborative_adds_subscriptions_via_gossip(self):
        result = run_collaborative_experiment(config=TINY)
        rows = {row["metric"]: row for row in result.rows}
        assert rows["gossip_messages"]["solo"] == 0
        assert rows["groups_formed"]["collaborative"] >= rows["groups_formed"]["solo"]
        assert (
            rows["active_subscriptions_per_user"]["collaborative"]
            >= rows["active_subscriptions_per_user"]["solo"]
        )


class TestSubstrate:
    def test_matching_throughput_reported_per_size(self):
        result = run_matching_scalability(subscription_counts=(50, 500), events_per_point=100)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["events_per_second"] > 0
            assert row["matches_per_event"] >= 0

    def test_routing_beats_flooding(self):
        result = run_routing_scalability(depth=3, fanout=2, subscribers=12, publications=40)
        rows = {row["substrate"]: row for row in result.rows}
        routed = rows["content-based routing"]
        flooded = rows["flooding baseline"]
        assert routed["deliveries"] == flooded["deliveries"]
        assert routed["brokers_visited_per_event"] <= flooded["brokers_visited_per_event"]
        assert rows["scribe topic multicast"]["deliveries"] >= 0


class TestRoutedClusterSweep:
    def test_routed_sweep_verified_shape(self):
        from repro.experiments.cluster_scale import run_routed_cluster_scale

        result = run_routed_cluster_scale(
            topologies=("line", "star"),
            batch_sizes=(1, 8),
            num_brokers=4,
            scale=0.03,
            verify=True,
        )
        assert result.parameters["verified"] is True
        assert len(result.rows) == 4
        assert len({row["deliveries"] for row in result.rows}) == 1
        for row in result.rows:
            assert row["forwards_per_event"] > 0
            assert row["max_hops"] >= 1


class TestPushPull:
    def test_proxy_load_constant_in_clients(self):
        result = run_push_pull_experiment(client_counts=(1, 4), num_feeds=5, duration_hours=6)
        first, second = result.rows
        assert second["direct_origin_requests"] == pytest.approx(4 * first["direct_origin_requests"])
        assert second["proxy_origin_requests"] == pytest.approx(first["proxy_origin_requests"])
        assert second["request_reduction"] > first["request_reduction"]
        assert second["direct_updates_seen"] == second["proxy_updates_delivered"]
