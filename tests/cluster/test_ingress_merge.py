"""Ingress merging and advertisement batching on the RoutingFabric.

Covers the duplicate-advert no-op (a subscription with the same canonical
signature as a live same-subscriber one never re-advertises), promotion of
merged subscriptions when their twin retracts, and ``subscribe_many`` batch
placement being observationally identical to a subscribe loop.
"""

from __future__ import annotations

import pytest

from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.cluster.routing import RoutingFabric
from repro.pubsub.broker import Broker
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import (
    Operator,
    Predicate,
    Subscription,
    topic_subscription,
)


def _fabric(*names, edges=(), **kwargs):
    fabric = RoutingFabric(**kwargs)
    for name in names:
        fabric.add_node(name, Broker(name))
    for first, second in edges:
        fabric.connect(first, second)
    return fabric


def _line(num, **kwargs):
    names = [f"b{i}" for i in range(num)]
    edges = [(f"b{i}", f"b{i + 1}") for i in range(num - 1)]
    return _fabric(*names, edges=edges, **kwargs)


def _sub(topic, subscriber="u"):
    return topic_subscription("news.story", "topic", topic, subscriber=subscriber)


def _wide(subscriber="u"):
    """Covers every news.story subscription (no predicates)."""
    return Subscription(event_type="news.story", predicates=(), subscriber=subscriber)


def _event(topic, priority=1):
    return Event(
        event_type="news.story", attributes={"topic": topic, "priority": priority}
    )


def _skipped(fabric):
    return fabric.metrics.counter("overlay.adverts_skipped").value


class TestDuplicateAdvertNoOp:
    def test_exact_duplicate_merges_with_no_routing_change(self):
        fabric = _line(3)
        original = _sub("sports")
        duplicate = _sub("sports")
        first = fabric.subscribe_at("b0", original)
        assert first.hops == 2 and not first.merged
        baseline = fabric.routing_snapshot()
        skipped_before = _skipped(fabric)

        second = fabric.subscribe_at("b0", duplicate)
        assert second.merged
        assert second.hops == 0 and second.pruned == 0
        assert _skipped(fabric) == skipped_before + 1
        assert fabric.metrics.counter("overlay.subscriptions_merged").value == 1
        # No routing state anywhere changed; the fabric is still canonical.
        assert fabric.routing_snapshot() == baseline
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()
        # Both are live locally and both match.
        matched = fabric.nodes["b0"].local_engine.match(_event("sports"))
        assert {s.subscription_id for s in matched} == {
            original.subscription_id,
            duplicate.subscription_id,
        }
        assert fabric.subscription_home(duplicate.subscription_id) == "b0"
        assert [m[0] for m in fabric.merged_subscriptions()] == ["b0"]

    def test_different_subscriber_still_advertises(self):
        fabric = _line(2)
        fabric.subscribe_at("b0", _sub("sports", subscriber="u"))
        outcome = fabric.subscribe_at("b0", _sub("sports", subscriber="v"))
        assert not outcome.merged
        # The second is pruned on the wire by per-edge covering, but it is
        # advertised (holds fabric state), not ingress-merged.
        assert fabric.merged_subscriptions() == []

    def test_same_subscriber_different_home_still_advertises(self):
        fabric = _line(3)
        fabric.subscribe_at("b0", _sub("sports"))
        outcome = fabric.subscribe_at("b2", _sub("sports"))
        assert not outcome.merged
        assert fabric.merged_subscriptions() == []

    def test_unsubscribe_duplicate_is_local_only(self):
        fabric = _line(3, verify_repairs=True)
        original = _sub("sports")
        duplicate = _sub("sports")
        fabric.subscribe_at("b0", original)
        fabric.subscribe_at("b0", duplicate)
        baseline = fabric.routing_snapshot()

        assert fabric.unsubscribe_at("b1", duplicate.subscription_id) is False
        assert fabric.unsubscribe_at("b0", duplicate.subscription_id) is True
        assert duplicate.subscription_id not in fabric.nodes["b0"].local_engine
        assert fabric.merged_subscriptions() == []
        assert fabric.routing_snapshot() == baseline
        # Idempotent: the id is gone now.
        assert fabric.unsubscribe_at("b0", duplicate.subscription_id) is False

    def test_retracting_original_promotes_duplicate(self):
        fabric = _line(3, verify_repairs=True)
        original = _sub("sports")
        duplicate = _sub("sports")
        fabric.subscribe_at("b0", original)
        fabric.subscribe_at("b0", duplicate)

        assert fabric.unsubscribe_at("b0", original.subscription_id) is True
        # The duplicate took over the advertisement: routes toward b0 stay.
        assert fabric.merged_subscriptions() == []
        assert duplicate.subscription_id in {
            s.subscription_id for s in fabric.live_subscriptions()
        }
        assert fabric.metrics.counter("overlay.subscriptions_unmerged").value == 1
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()
        assert fabric.next_hops("b2", _event("sports")) == ["b1"]

    def test_reissue_of_merged_id_stays_merged(self):
        fabric = _line(2, verify_repairs=True)
        fabric.subscribe_at("b0", _sub("sports"))
        duplicate = _sub("sports")
        fabric.subscribe_at("b0", duplicate)
        again = fabric.subscribe_at("b0", duplicate)
        assert again.replaced and again.merged
        assert len(fabric.merged_subscriptions()) == 1

    def test_home_move_of_merged_subscription(self):
        fabric = _line(3, verify_repairs=True)
        fabric.subscribe_at("b0", _sub("sports"))
        duplicate = _sub("sports")
        fabric.subscribe_at("b0", duplicate)

        moved = fabric.subscribe_at("b2", duplicate)
        assert moved.replaced and not moved.merged
        assert duplicate.subscription_id not in fabric.nodes["b0"].local_engine
        assert fabric.subscription_home(duplicate.subscription_id) == "b2"
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()

    def test_remove_node_drops_merged_subscriptions(self):
        fabric = _line(3)
        original = _sub("sports")
        duplicate = _sub("sports")
        fabric.subscribe_at("b0", original)
        fabric.subscribe_at("b0", duplicate)

        fabric.remove_node("b0")
        assert fabric.merged_subscriptions() == []
        assert fabric.live_subscriptions() == []
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()


class TestMergedTwins:
    def test_covered_subscription_still_advertises(self):
        # Only exact twins merge; a strictly covered subscription holds its
        # own fabric state (pruned per edge by covering instead).
        fabric = _line(2)
        fabric.subscribe_at("b0", _wide())
        outcome = fabric.subscribe_at("b0", _sub("sports"))
        assert not outcome.merged
        assert fabric.merged_subscriptions() == []

    def test_promoted_child_may_remerge_under_sibling(self):
        fabric = _line(2, verify_repairs=True)
        first = _sub("sports")
        twin = _sub("sports")
        third = _sub("sports")
        fabric.subscribe_at("b0", first)
        fabric.subscribe_at("b0", twin)
        fabric.subscribe_at("b0", third)
        assert {coverer for _h, _s, coverer in fabric.merged_subscriptions()} == {
            first.subscription_id
        }

        fabric.unsubscribe_at("b0", first.subscription_id)
        # The twin (first merge) promotes to advertised; the third
        # re-merges under the freshly promoted twin.
        merged = fabric.merged_subscriptions()
        assert [
            (s.subscription_id, coverer) for _h, s, coverer in merged
        ] == [(third.subscription_id, twin.subscription_id)]
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()

    def test_merged_twin_delivers_like_brute_force(self):
        cluster = BrokerCluster(link_latency=0.0)
        for name in ("a", "b", "c"):
            cluster.add_broker(name)
        cluster.connect("a", "b")
        cluster.connect("b", "c")
        subscriptions = [
            _wide(subscriber="alice"),
            _sub("sports", subscriber="alice"),
            _sub("sports", subscriber="alice"),
        ]
        for subscription in subscriptions:
            cluster.subscribe("a", subscription)
        assert len(cluster.fabric.merged_subscriptions()) == 1
        delivered = []
        cluster.on_delivery(
            lambda broker, subscriber, event, subscription: delivered.append(
                (event.attributes["topic"], subscription.subscription_id)
            )
        )
        events = [_event("sports"), _event("politics")]
        for event in events:
            cluster.publish("c", event)
        cluster.run()
        assert sorted(delivered) == sorted(
            (event.attributes["topic"], subscription.subscription_id)
            for event in events
            for subscription in subscriptions
            if subscription.matches(event)
        )


class TestSubscribeMany:
    def _mixed_batch(self):
        return [
            _sub("sports", subscriber="u1"),
            _wide(subscriber="u2"),
            _sub("sports", subscriber="u2"),  # covered by u2's wide sub
            _sub("politics", subscriber="u3"),
            _sub("politics", subscriber="u3"),  # exact twin
            _sub("finance", subscriber="u4"),
        ]

    def test_batch_equals_loop(self):
        batch_fabric = _line(4, verify_repairs=True)
        loop_fabric = _line(4)
        subs = self._mixed_batch()

        batch_outcomes = batch_fabric.subscribe_many_at("b0", subs)
        loop_outcomes = [loop_fabric.subscribe_at("b0", s) for s in subs]

        assert batch_fabric.routing_snapshot() == loop_fabric.routing_snapshot()
        assert batch_fabric.routing_snapshot() == batch_fabric.rebuilt_snapshot()
        assert [
            (o.subscription_id, o.merged, o.hops, o.pruned) for o in batch_outcomes
        ] == [
            (o.subscription_id, o.merged, o.hops, o.pruned) for o in loop_outcomes
        ]
        assert sorted(
            s.subscription_id for s in batch_fabric.live_subscriptions()
        ) == sorted(s.subscription_id for s in loop_fabric.live_subscriptions())

    def test_batch_covered_members_prune_everywhere(self):
        fabric = _line(4)
        wide = _wide(subscriber="w")
        narrow = _sub("sports", subscriber="w2")
        narrower = _sub("sports", subscriber="w2")
        outcomes = fabric.subscribe_many_at("b0", [wide, narrow, narrower])
        # wide placed on every edge of the line; the others pruned there.
        assert outcomes[0].hops == 3 and outcomes[0].pruned == 0
        assert outcomes[1].hops == 0 and outcomes[1].pruned == 3
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()

    def test_empty_and_single_batches(self):
        fabric = _line(2, verify_repairs=True)
        assert fabric.subscribe_many_at("b0", []) == []
        (outcome,) = fabric.subscribe_many_at("b0", [_sub("sports")])
        assert outcome.hops == 1

    def test_batch_reissue_and_cross_batch_twin(self):
        fabric = _line(3, verify_repairs=True)
        original = _sub("sports")
        fabric.subscribe_many_at("b0", [original])
        duplicate = _sub("sports")
        outcomes = fabric.subscribe_many_at("b0", [duplicate, original])
        assert outcomes[0].merged  # twin of the live original
        assert outcomes[1].replaced  # re-issue of the original
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()

    def test_in_batch_reissue_superseded_by_twin_merge(self):
        # The same id appears twice in one batch and the LATER definition
        # twin-merges with a pre-batch subscription: the earlier
        # definition is superseded before the walk and must not be
        # advertised at all (it no longer holds an issue number).
        fabric = _line(3, verify_repairs=True)
        fabric.subscribe_at("b0", _sub("sports", subscriber="u"))
        first = Subscription(
            event_type="news.story",
            predicates=(Predicate("topic", Operator.EQ, "politics"),),
            subscriber="u",
            subscription_id="dup",
        )
        second = Subscription(
            event_type="news.story",
            predicates=(Predicate("topic", Operator.EQ, "sports"),),
            subscriber="u",
            subscription_id="dup",
        )
        outcomes = fabric.subscribe_many_at("b0", [first, second])
        assert outcomes[1].replaced and outcomes[1].merged
        assert fabric.subscription_home("dup") == "b0"
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()
        # Only the pre-batch subscription is advertised; "dup" rides on it.
        assert len(fabric.homed_subscriptions()) == 1

    def test_in_batch_reissue_superseded_after_fast_path(self):
        # First occurrence of the id copies a batch cover's fate (fast
        # path); the re-issue changes event type and places for real.  The
        # superseded occurrence must leave no prune records behind.
        fabric = _line(3, verify_repairs=True)
        wide = _wide(subscriber="w")
        first = Subscription(
            event_type="news.story",
            predicates=(Predicate("topic", Operator.EQ, "sports"),),
            subscriber="w2",
            subscription_id="dup",
        )
        second = Subscription(
            event_type="ticker.quote",
            predicates=(),
            subscriber="w2",
            subscription_id="dup",
        )
        outcomes = fabric.subscribe_many_at("b0", [wide, first, second])
        assert outcomes[2].replaced and outcomes[2].hops == 2
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()
        assert fabric.unsubscribe_at("b0", "dup")
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()

    def test_unknown_broker_rejected(self):
        fabric = _line(2)
        with pytest.raises(KeyError):
            fabric.subscribe_many_at("ghost", [_sub("sports")])

    def test_topology_merge_batches_adverts(self):
        # Two components, each with live subscriptions; connecting them
        # advertises each side's set into the other in one batched walk.
        fabric = _fabric("a", "b", "c", "d", edges=[("a", "b"), ("c", "d")])
        fabric.subscribe_at("a", _sub("sports", subscriber="left"))
        fabric.subscribe_at("a", _sub("politics", subscriber="left"))
        fabric.subscribe_at("d", _sub("finance", subscriber="right"))
        fabric.connect("b", "c")
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()
        assert fabric.next_hops("d", _event("sports")) == ["c"]
        assert fabric.next_hops("a", _event("finance")) == ["b"]

    def test_cluster_wrapper(self):
        cluster = BrokerCluster()
        build_cluster_topology("line", 3, cluster)
        subs = [_sub("sports", subscriber="u"), _sub("sports", subscriber="u")]
        outcomes = cluster.subscribe_many("b0", subs)
        assert [o.merged for o in outcomes] == [False, True]
        assert cluster.fabric.routing_snapshot() == cluster.fabric.rebuilt_snapshot()
