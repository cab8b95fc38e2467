"""Broker subscription accounting: no double-counting on re-issue."""

from __future__ import annotations

from repro.pubsub.broker import Broker
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Operator, Predicate, Subscription


def _sub(topic, sub_id=None, subscriber="alice"):
    kwargs = {"subscription_id": sub_id} if sub_id else {}
    return Subscription(
        event_type="news.story",
        predicates=(Predicate("topic", Operator.EQ, topic),),
        subscriber=subscriber,
        **kwargs,
    )


class TestSubscriptionAccounting:
    def test_distinct_subscriptions_each_count(self):
        broker = Broker("b0")
        broker.subscribe_local(_sub("alpha"))
        broker.subscribe_local(_sub("beta"))
        assert broker.stats.subscriptions_received == 2
        assert broker.local_subscription_count == 2

    def test_reissued_identical_subscription_not_double_counted(self):
        broker = Broker("b0")
        subscription = _sub("alpha", sub_id="sub-re")
        broker.subscribe_local(subscription)
        broker.subscribe_local(subscription)
        broker.subscribe_local(subscription)
        assert broker.stats.subscriptions_received == 1
        assert broker.local_subscription_count == 1

    def test_replace_on_readd_keeps_stats_consistent(self):
        # Same id, changed definition: the engine replaces the entry, and
        # the counter still records one distinct subscription.
        broker = Broker("b0")
        broker.subscribe_local(_sub("alpha", sub_id="sub-x"))
        broker.subscribe_local(_sub("beta", sub_id="sub-x"))
        assert broker.stats.subscriptions_received == 1
        assert broker.local_subscription_count == 1
        beta = Event(event_type="news.story", attributes={"topic": "beta"})
        assert len(broker.local_engine.match(beta)) == 1

    def test_resubscribe_after_unsubscribe_counts_again(self):
        broker = Broker("b0")
        subscription = _sub("alpha", sub_id="sub-y")
        broker.subscribe_local(subscription)
        assert broker.unsubscribe_local("sub-y")
        broker.subscribe_local(subscription)
        assert broker.stats.subscriptions_received == 2
        assert broker.local_subscription_count == 1

    def test_covered_subscription_with_new_id_still_counts(self):
        # Covering matters for routing-state pruning, not reception: a new
        # subscription id is a distinct reception even if covered.
        broker = Broker("b0")
        broker.subscribe_local(_sub("alpha"))
        broker.subscribe_local(_sub("alpha", subscriber="bob"))
        assert broker.stats.subscriptions_received == 2


class TestRemoteEngines:
    def test_remote_engines_created_on_demand(self):
        broker = Broker("b0")
        broker.add_neighbour("b1")
        assert len(broker.remote_engines["b1"]) == 0
        broker.learn_remote("b2", _sub("alpha"))
        assert len(broker.remote_engines["b2"]) == 1
        assert broker.routing_table_size() == 1
