"""RoutingFabric units: topology, propagation, pruning, retraction repair."""

from __future__ import annotations

import pytest

from repro.cluster.routing import RoutingFabric
from repro.pubsub.broker import Broker
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import (
    Operator,
    Predicate,
    Subscription,
    topic_subscription,
)


def _fabric(*names, edges=()):
    fabric = RoutingFabric()
    for name in names:
        fabric.add_node(name, Broker(name))
    for first, second in edges:
        fabric.connect(first, second)
    return fabric


def _sub(topic, subscriber="u"):
    return topic_subscription("news.story", "topic", topic, subscriber=subscriber)


def _event(topic, priority=1):
    return Event(
        event_type="news.story", attributes={"topic": topic, "priority": priority}
    )


class TestTopology:
    def test_duplicate_node_rejected(self):
        fabric = _fabric("a")
        with pytest.raises(ValueError):
            fabric.add_node("a", Broker("a"))

    def test_connect_validations(self):
        fabric = _fabric("a", "b", "c", edges=[("a", "b"), ("b", "c")])
        with pytest.raises(KeyError):
            fabric.connect("a", "ghost")
        with pytest.raises(ValueError):
            fabric.connect("a", "a")
        with pytest.raises(ValueError):
            fabric.connect("a", "c")  # would close a cycle

    def test_neighbours_and_names(self):
        fabric = _fabric("a", "b", "c", edges=[("a", "b")])
        assert fabric.neighbours("a") == {"b"}
        assert fabric.node_names() == ["a", "b", "c"]
        assert len(fabric) == 3

    def test_unknown_home_rejected(self):
        fabric = _fabric("a")
        with pytest.raises(KeyError):
            fabric.subscribe_at("ghost", _sub("sports"))
        with pytest.raises(KeyError):
            fabric.subscribe_many_at("ghost", [_sub("sports")])
        assert fabric.unsubscribe_at("ghost", "nope") is False
        assert fabric.unsubscribe_many_at("ghost", ["nope"]) == [False]


class TestPropagation:
    def test_routes_point_back_toward_home(self):
        fabric = _fabric("a", "b", "c", edges=[("a", "b"), ("b", "c")])
        outcome = fabric.subscribe_at("a", _sub("sports"))
        # b learned the route via a; c learned it via b.
        assert outcome.hops == 2
        assert fabric.nodes["b"].remote_engines["a"].matches_any(_event("sports"))
        assert fabric.nodes["c"].remote_engines["b"].matches_any(_event("sports"))
        assert fabric.next_hops("c", _event("sports")) == ["b"]
        assert fabric.next_hops("b", _event("sports"), came_from="a") == []

    def test_next_hops_skip_arrival_link(self):
        fabric = _fabric("a", "b", "c", edges=[("a", "b"), ("a", "c")])
        fabric.subscribe_at("b", _sub("anything"))
        fabric.subscribe_at("c", _sub("anything"))
        assert fabric.next_hops("a", _event("anything")) == ["b", "c"]
        assert fabric.next_hops("a", _event("anything"), came_from="b") == ["c"]

    def test_covering_prunes(self):
        fabric = _fabric("a", "b", edges=[("a", "b")])
        broad = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 1),),
            subscriber="u",
        )
        narrow = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 5),),
            subscriber="u",
        )
        fabric.subscribe_at("a", broad)
        outcome = fabric.subscribe_at("a", narrow)
        assert outcome.hops == 0
        assert outcome.pruned == 1
        assert fabric.total_routing_state() == 1

    def test_subscription_home_tracking(self):
        fabric = _fabric("a", "b", edges=[("a", "b")])
        subscription = _sub("sports")
        fabric.subscribe_at("a", subscription)
        assert fabric.subscription_home(subscription.subscription_id) == "a"
        assert [s.subscription_id for s in fabric.live_subscriptions()] == [
            subscription.subscription_id
        ]
        assert fabric.subscription_home("ghost") is None

    def test_subscribe_at_unknown_broker(self):
        with pytest.raises(KeyError):
            _fabric("a").subscribe_at("ghost", _sub("x"))


class TestRetraction:
    def test_unsubscribe_wrong_home_or_unknown(self):
        fabric = _fabric("a", "b", edges=[("a", "b")])
        subscription = _sub("sports")
        fabric.subscribe_at("a", subscription)
        assert fabric.unsubscribe_at("b", subscription.subscription_id) is False
        assert fabric.unsubscribe_at("a", "ghost") is False
        assert fabric.unsubscribe_at("a", subscription.subscription_id) is True
        assert fabric.total_routing_state() == 0

    def test_repair_readvertises_covered_subscription(self):
        fabric = _fabric("a", "b", "c", edges=[("a", "b"), ("b", "c")])
        broad = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 1),),
            subscriber="u",
        )
        narrow = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 5),),
            subscriber="u",
        )
        fabric.subscribe_at("a", broad)
        fabric.subscribe_at("a", narrow)  # pruned everywhere
        fabric.unsubscribe_at("a", broad.subscription_id)
        # narrow's route must now exist: c still forwards priority-7 events.
        assert fabric.next_hops("c", _event("any", priority=7)) == ["b"]
        assert fabric.next_hops("c", _event("any", priority=2)) == []

    def test_repair_respects_other_covers(self):
        """A survivor still covered by a third subscription stays pruned."""
        fabric = _fabric("a", "b", edges=[("a", "b")])
        ge1 = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 1),),
            subscriber="u",
        )
        ge2 = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 2),),
            subscriber="u",
        )
        ge5 = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 5),),
            subscriber="u",
        )
        fabric.subscribe_at("a", ge1)
        fabric.subscribe_at("a", ge2)
        fabric.subscribe_at("a", ge5)
        assert fabric.total_routing_state() == 1
        fabric.unsubscribe_at("a", ge1.subscription_id)
        # ge2 takes over as the covering route; ge5 remains covered by it.
        assert fabric.total_routing_state() == 1
        assert fabric.next_hops("b", _event("x", priority=3)) == ["a"]

    def test_replacement_outcome_flag(self):
        fabric = _fabric("a", "b", edges=[("a", "b")])
        subscription = _sub("sports")
        assert fabric.subscribe_at("a", subscription).replaced is False
        assert fabric.subscribe_at("a", subscription).replaced is True

    def test_resubscribe_moves_home_broker(self):
        fabric = _fabric("a", "b", "c", edges=[("a", "b"), ("b", "c")])
        subscription = _sub("sports")
        fabric.subscribe_at("a", subscription)
        fabric.subscribe_at("c", subscription)
        assert fabric.subscription_home(subscription.subscription_id) == "c"
        # Routes now point toward c, and a no longer holds it locally.
        assert fabric.next_hops("a", _event("sports")) == ["b"]
        assert not fabric.nodes["a"].local_engine.matches_any(_event("sports"))


class TestRetractionFailurePath:
    def test_bypassed_local_engine_makes_unsubscribe_side_effect_free(self):
        """Regression: when the home broker's local engine no longer holds
        the id (the fabric was bypassed), the old ``_retract`` still popped
        the home table and purged every remote route before returning
        ``False`` — leaving half-removed state with no covering repair.
        The failure path must mutate nothing."""
        fabric = _fabric("a", "b", "c", edges=[("a", "b"), ("b", "c")])
        broad = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 1),),
            subscriber="u",
        )
        narrow = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 5),),
            subscriber="u",
        )
        fabric.subscribe_at("a", broad)
        fabric.subscribe_at("a", narrow)  # pruned in favour of broad
        # Bypass the fabric: the local engine loses the entry directly.
        assert fabric.nodes["a"].unsubscribe_local(broad.subscription_id)
        snapshot = fabric.routing_snapshot()
        homed = [(h, s.subscription_id) for h, s in fabric.homed_subscriptions()]

        assert fabric.unsubscribe_at("a", broad.subscription_id) is False
        # Nothing moved: routes, home table and issue order are untouched.
        assert fabric.routing_snapshot() == snapshot
        assert [(h, s.subscription_id) for h, s in fabric.homed_subscriptions()] == homed
        assert fabric.subscription_home(broad.subscription_id) == "a"
        # The fabric heals through a re-issue, which force-retracts the
        # stale definition and repairs the covered subscription's routes.
        fabric.subscribe_at("a", broad)
        assert fabric.unsubscribe_at("a", broad.subscription_id) is True
        assert fabric.next_hops("c", _event("any", priority=7)) == ["b"]
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()


class TestLateLinks:
    def test_connect_readvertises_live_subscriptions(self):
        fabric = _fabric("a", "b", "c")
        subscription = _sub("sports")
        fabric.subscribe_at("a", subscription)
        fabric.connect("a", "b")
        fabric.connect("b", "c")
        assert fabric.next_hops("c", _event("sports")) == ["b"]
        assert fabric.next_hops("b", _event("sports")) == ["a"]

    def test_connect_advertises_into_far_side_only(self):
        """Joining components walks the far side once per subscription —
        brokers on the subscription's own side already hold its routes and
        must not be re-walked (no hop-stat inflation)."""
        fabric = _fabric("a", "b", "c", "d", edges=[("a", "b"), ("c", "d")])
        left = _sub("sports")
        right = _sub("weather")
        fabric.subscribe_at("a", left)  # b learns: 1 hop
        fabric.subscribe_at("d", right)  # c learns: 1 hop
        hops_before = fabric.metrics.counter("overlay.subscription_hops").value
        assert hops_before == 2
        fabric.connect("b", "c")
        # left crosses into {c, d} (2 learns), right into {a, b} (2 learns);
        # nothing on a subscription's own side is touched again.
        assert fabric.metrics.counter("overlay.subscription_hops").value == (
            hops_before + 4
        )
        assert fabric.next_hops("d", _event("sports")) == ["c"]
        assert fabric.next_hops("a", _event("weather")) == ["b"]

    def test_resubscribe_does_not_double_count_home_stats(self):
        fabric = _fabric("a", "b", edges=[("a", "b")])
        subscription = _sub("sports")
        fabric.subscribe_at("a", subscription)
        fabric.subscribe_at("a", subscription)
        assert fabric.nodes["a"].stats.subscriptions_received == 1

    def test_connect_with_no_subscriptions_skips_advertisement_walk(self):
        """Wiring a topology before anything subscribes (what every
        build_* helper does) must not walk components per link."""
        fabric = _fabric("a", "b", "c")
        fabric.connect("a", "b")
        fabric.connect("b", "c")
        assert fabric.metrics.counter("overlay.adverts_skipped").value == 2
        assert fabric.metrics.counter("overlay.subscription_hops").value == 0

    def test_connect_with_one_empty_side_counts_skipped_direction(self):
        fabric = _fabric("a", "b")
        fabric.subscribe_at("a", _sub("sports"))
        fabric.connect("a", "b")  # b's side homes nothing to advertise
        assert fabric.metrics.counter("overlay.adverts_skipped").value == 1
        assert fabric.next_hops("b", _event("sports")) == ["a"]

    def test_connect_ignores_subscriptions_homed_in_third_components(self):
        """Merging two components must not advertise subscriptions homed
        in some *other* disconnected component (possible mid-churn with
        several links down): their homes are unreachable from both sides
        and any route toward them would be stale."""
        fabric = _fabric(
            "a", "b", "c", "d",
            edges=[("a", "b"), ("b", "c"), ("c", "d")],
        )
        orphan = _sub("weather")
        fabric.subscribe_at("d", orphan)
        fabric.disconnect("b", "c")
        fabric.disconnect("c", "d")  # orphan's home now isolated at d
        fabric.connect("b", "c")  # merge {a,b} with {c}; d stays apart
        assert fabric.next_hops("a", _event("weather")) == []
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()
