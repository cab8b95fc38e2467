"""Randomized equivalence for the million-subscription machinery.

Two oracles pin the PR-6 scale work:

* the interned/columnar :class:`~repro.pubsub.matching.MatchingEngine`
  (also when fed through ``add_many``) must stay
  observationally identical to :class:`NaiveMatchingEngine` across
  randomized churn over a *shared* predicate universe — the regime where
  interning actually shares state between subscriptions;
* a twin-merging fabric must keep ``routing_snapshot()`` equal to its
  from-scratch ``rebuilt_snapshot()`` through covering-heavy subscribe
  and retraction storms, place a ``subscribe_many`` batch exactly as a
  subscribe loop does, and deliver exactly the brute-force match set.

All randomness is driven by :class:`~repro.sim.rng.SeededRNG`.
"""

from __future__ import annotations

import pytest

from repro.cluster.broker_cluster import BrokerCluster
from repro.pubsub.events import Event
from repro.pubsub.matching import MatchingEngine, NaiveMatchingEngine
from repro.pubsub.subscriptions import Operator, Predicate, Subscription
from repro.sim.rng import SeededRNG

EVENT_TYPES = ["news.story", "ticker.quote"]
TOPICS = ["sports", "politics", "finance", "weather"]
SUBSCRIBERS = [f"user{i}" for i in range(6)]


def _predicate_universe():
    """A small shared predicate universe: random subscriptions draw from
    it with replacement, so interning/signature sharing is constantly
    exercised (the million-subscription regime in miniature)."""
    universe = [Predicate("topic", Operator.EQ, topic) for topic in TOPICS]
    universe.extend(Predicate("priority", Operator.GE, level) for level in (1, 3, 5))
    universe.append(Predicate("priority", Operator.LE, 4))
    universe.append(Predicate("topic", Operator.EXISTS))
    universe.append(Predicate("source", Operator.PREFIX, "http://"))
    return universe


def _random_subscription(rng, universe, subscription_id=None):
    count = rng.randint(0, 3)
    predicates = tuple(rng.choice(universe) for _ in range(count))
    kwargs = {}
    if subscription_id is not None:
        kwargs["subscription_id"] = subscription_id
    return Subscription(
        event_type=rng.choice(EVENT_TYPES),
        predicates=predicates,
        subscriber=rng.choice(SUBSCRIBERS),
        **kwargs,
    )


def _random_event(rng):
    attributes = {"topic": rng.choice(TOPICS)}
    if rng.random() < 0.8:
        attributes["priority"] = rng.randint(0, 6)
    if rng.random() < 0.3:
        attributes["source"] = rng.choice(["http://a.example", "ftp://b.example"])
    return Event(event_type=rng.choice(EVENT_TYPES), attributes=attributes)


def _ids(subscriptions):
    return [s.subscription_id for s in subscriptions]


class TestEngineChurnEquivalence:
    @pytest.mark.parametrize("seed", [3, 11, 42, 77])
    def test_columnar_engine_equals_naive_across_churn(self, seed):
        rng = SeededRNG(seed)
        universe = _predicate_universe()
        fast, naive = MatchingEngine(), NaiveMatchingEngine()
        live = []

        for step in range(300):
            roll = rng.random()
            if roll < 0.45 or not live:
                sub = _random_subscription(rng, universe)
                fast.add(sub)
                naive.add(sub)
                live.append(sub.subscription_id)
            elif roll < 0.60:
                # Replace a live id with a new definition (slot reuse).
                replaced = _random_subscription(
                    rng, universe, subscription_id=rng.choice(live)
                )
                fast.add(replaced)
                naive.add(replaced)
            elif roll < 0.75:
                victim = live.pop(rng.randint(0, len(live) - 1))
                assert fast.remove(victim) == naive.remove(victim)
                assert fast.remove(victim) is False  # idempotent
            else:
                event = _random_event(rng)
                assert _ids(fast.match(event)) == _ids(naive.match(event))
                assert fast.match_count(event) == naive.match_count(event)
                assert fast.matches_any(event) == naive.matches_any(event)
                assert fast.match_subscribers(event) == naive.match_subscribers(event)

            assert len(fast) == len(naive)

        events = [_random_event(rng) for _ in range(20)]
        assert [_ids(row) for row in fast.match_batch(events)] == [
            _ids(naive.match(event)) for event in events
        ]
        stats = fast.column_stats()
        assert stats["slots"] - stats["free_slots"] == len(naive)
        assert stats["distinct_shapes"] <= stats["slots"]

    @pytest.mark.parametrize("seed", [5, 29])
    def test_add_many_equals_naive(self, seed):
        rng = SeededRNG(seed)
        universe = _predicate_universe()
        fast = MatchingEngine()
        naive = NaiveMatchingEngine()

        for _round in range(6):
            batch = [
                _random_subscription(rng, universe)
                for _ in range(rng.randint(5, 40))
            ]
            if batch and rng.random() < 0.5:
                # Duplicate an id inside the batch: last definition wins.
                clone = _random_subscription(
                    rng, universe, subscription_id=batch[0].subscription_id
                )
                batch.append(clone)
            fast.add_many(batch)
            naive.add_many(batch)
            for subscription_id in rng.sample(
                [s.subscription_id for s in naive.subscriptions()],
                min(4, len(naive)),
            ):
                assert fast.remove(subscription_id) == naive.remove(subscription_id)
            assert len(fast) == len(naive)
            for _probe in range(10):
                event = _random_event(rng)
                assert _ids(fast.match(event)) == _ids(naive.match(event))
                assert fast.match_subscribers(event) == naive.match_subscribers(event)


class TestIngressMergeEquivalence:
    def _build_cluster(self):
        cluster = BrokerCluster(link_latency=0.0)
        for name in ("a", "b", "c", "d"):
            cluster.add_broker(name)
        cluster.connect("a", "b")
        cluster.connect("b", "c")
        cluster.connect("b", "d")
        cluster.delivered = []
        cluster.on_delivery(
            lambda _broker, subscriber, _event, subscription: cluster.delivered.append(
                (subscriber, subscription.subscription_id)
            )
        )
        return cluster

    @staticmethod
    def _home(client):
        return ("a", "c", "d")[SUBSCRIBERS.index(client) % 3]

    def _covering_heavy_subscription(
        self, rng, universe, subscription_id=None, subscriber=None
    ):
        """Few subscribers x few shapes -> constant twin merges and covers."""
        if subscriber is None:
            subscriber = rng.choice(SUBSCRIBERS[:3])
        roll = rng.random()
        if roll < 0.25:
            predicates = ()  # covers everything on the event type
        elif roll < 0.7:
            predicates = (rng.choice(universe[:4]),)
        else:
            predicates = (rng.choice(universe[:4]), rng.choice(universe[4:7]))
        kwargs = {}
        if subscription_id is not None:
            kwargs["subscription_id"] = subscription_id
        return Subscription(
            event_type="news.story",
            predicates=predicates,
            subscriber=subscriber,
            **kwargs,
        )

    @staticmethod
    def _deliveries(cluster, broker, event):
        cluster.delivered.clear()
        before = {name: p.stats.events_processed for name, p in cluster.brokers.items()}
        cluster.publish(broker, event)
        cluster.run()
        visited = sorted(
            name for name, p in cluster.brokers.items()
            if p.stats.events_processed > before[name]
        )
        return sorted(cluster.delivered), visited

    @pytest.mark.parametrize("seed", [2, 17, 61])
    def test_twin_merged_fabric_matches_rebuild_and_brute_force(self, seed):
        rng = SeededRNG(seed)
        universe = _predicate_universe()
        batched = self._build_cluster()
        looped = self._build_cluster()
        live = {}  # subscription id -> (client, definition)

        for step in range(60):
            roll = rng.random()
            if roll < 0.40 or not live:
                sub = self._covering_heavy_subscription(rng, universe)
                for cluster in (batched, looped):
                    cluster.subscribe(self._home(sub.subscriber), sub)
                live[sub.subscription_id] = (sub.subscriber, sub)
            elif roll < 0.55:
                # Batch subscribe through one client.
                client = rng.choice(SUBSCRIBERS[:3])
                batch = [
                    self._covering_heavy_subscription(rng, universe, subscriber=client)
                    for _ in range(rng.randint(2, 6))
                ]
                for sub in batch:
                    live[sub.subscription_id] = (client, sub)
                batched.subscribe_many(self._home(client), batch)
                for sub in batch:
                    looped.subscribe(self._home(client), sub)
            elif roll < 0.70:
                # Retraction storm: drop a handful at once (promotions).
                victims = rng.sample(list(live), min(3, len(live)))
                for subscription_id in victims:
                    client, _sub = live.pop(subscription_id)
                    home = self._home(client)
                    assert batched.unsubscribe(home, subscription_id) is True
                    assert looped.unsubscribe(home, subscription_id) is True
            else:
                # Re-issue a live subscription (same id, maybe new shape).
                subscription_id = rng.choice(list(live))
                client, _old = live[subscription_id]
                replacement = self._covering_heavy_subscription(
                    rng, universe, subscription_id=subscription_id, subscriber=client
                )
                for cluster in (batched, looped):
                    cluster.subscribe(self._home(client), replacement)
                live[subscription_id] = (client, replacement)

            fabric = batched.fabric
            assert fabric.routing_snapshot() == fabric.rebuilt_snapshot()
            assert fabric.routing_snapshot() == looped.fabric.routing_snapshot()
            assert len(fabric.homed_subscriptions()) + len(
                fabric.merged_subscriptions()
            ) == len(live)

        # Merging must have actually fired for this workload to mean much.
        assert batched.fabric.metrics.counter("overlay.subscriptions_merged").value > 0

        for _probe in range(12):
            event = _random_event(rng)
            expected = sorted(
                (client, subscription_id)
                for subscription_id, (client, sub) in live.items()
                if sub.matches(event)
            )
            for publisher in ("a", "d"):
                delivered, visited = self._deliveries(batched, publisher, event)
                assert delivered == expected
                assert self._deliveries(looped, publisher, event) == (delivered, visited)
