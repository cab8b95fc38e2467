"""The access-predicate index of MatchingEngine, and the caches beside it.

Subscriptions with an ``EQ`` predicate are *anchored* under exactly one of
them; the rest go to the counting indexes.  These tests pin the structure
(`column_stats`, bucket choice, bucket clean-up), the contract that an
engine with nothing in its counting indexes leaves the two probe caches
alone, and the engine-identity check of those caches.
"""

from __future__ import annotations

from repro.pubsub.events import Event
from repro.pubsub.matching import (
    BatchMatchCache,
    MatchingEngine,
    NaiveMatchingEngine,
    RouteProbeCache,
)
from repro.pubsub.subscriptions import Operator, Predicate, Subscription

INDEX_STATS = ("anchored", "counting", "anchor_buckets", "largest_anchor_bucket")


def _sub(subscription_id: str, *predicates: Predicate) -> Subscription:
    return Subscription(
        event_type="t",
        predicates=predicates,
        subscriber=f"user-{subscription_id}",
        subscription_id=subscription_id,
    )


def _event(**attributes) -> Event:
    return Event(event_type="t", attributes=attributes)


def _index_stats(engine: MatchingEngine) -> tuple:
    stats = engine.column_stats()
    return tuple(stats[name] for name in INDEX_STATS)


class TestColumnStats:
    def test_index_numbers_track_add_and_remove(self):
        engine = MatchingEngine()
        assert _index_stats(engine) == (0, 0, 0, 0)
        engine.add(_sub("a1", Predicate("topic", Operator.EQ, "x")))
        engine.add(_sub("a2", Predicate("topic", Operator.EQ, "x"),
                        Predicate("price", Operator.GE, 3)))
        engine.add(_sub("a3", Predicate("topic", Operator.EQ, "y")))
        assert _index_stats(engine) == (3, 0, 2, 2)
        engine.add(_sub("c1", Predicate("price", Operator.GE, 3)))
        engine.add(_sub("c2", Predicate("price", Operator.LT, 9),
                        Predicate("topic", Operator.EXISTS)))
        engine.add(_sub("w1"))
        assert _index_stats(engine) == (3, 2, 2, 2)
        assert len(engine) == 6

        assert engine.remove("a3")  # its bucket empties and is deleted
        assert _index_stats(engine) == (2, 2, 1, 2)
        assert engine.remove("c1")
        assert _index_stats(engine) == (2, 1, 1, 2)
        assert engine.remove("w1")
        assert _index_stats(engine) == (2, 1, 1, 2)
        assert engine.remove("a1") and engine.remove("a2") and engine.remove("c2")
        assert _index_stats(engine) == (0, 0, 0, 0)
        assert not engine._anchor_index

    def test_readd_moves_an_id_between_populations(self):
        engine, naive = MatchingEngine(), NaiveMatchingEngine()
        definitions = [
            (Predicate("topic", Operator.EQ, "x"),),
            (Predicate("price", Operator.GE, 3),),
            (),
            (Predicate("price", Operator.GE, 3), Predicate("topic", Operator.EQ, "x")),
        ]
        expected = [(1, 0, 1, 1), (0, 1, 0, 0), (0, 0, 0, 0), (1, 0, 1, 1)]
        events = [_event(topic="x", price=5), _event(topic="x", price=1),
                  _event(price=5), _event(other=1)]
        for predicates, stats in zip(definitions, expected):
            moved = _sub("moving", *predicates)
            engine.add(moved)
            naive.add(moved)
            assert len(engine) == 1
            assert _index_stats(engine) == stats
            for event in events:
                assert engine.match(event) == naive.match(event)


class TestAccessPredicateChoice:
    def test_smallest_bucket_wins_and_the_choice_does_not_change_matches(self):
        engine, naive = MatchingEngine(), NaiveMatchingEngine()
        for index in range(5):
            crowd = _sub(f"crowd{index}", Predicate("a", Operator.EQ, 1))
            engine.add(crowd)
            naive.add(crowd)
        both = _sub("both", Predicate("a", Operator.EQ, 1), Predicate("b", Operator.EQ, 2))
        engine.add(both)
        naive.add(both)
        # Filed under b == 2 (empty bucket), not under the crowded a == 1.
        assert engine._access[engine._slot_of["both"]][0] == "b"
        assert engine.column_stats()["largest_anchor_bucket"] == 5
        # A later subscription sees b == 2 occupied and a == 9 empty.
        other = _sub("other", Predicate("b", Operator.EQ, 2), Predicate("a", Operator.EQ, 9))
        engine.add(other)
        naive.add(other)
        assert engine._access[engine._slot_of["other"]][0] == "a"
        for event in (_event(a=1, b=2), _event(a=1), _event(b=2), _event(a=9, b=2),
                      _event(a=1.0, b=True), _event(a="1", b=2)):
            assert engine.match(event) == naive.match(event)
            assert engine.matches_any(event) == naive.matches_any(event)

    def test_nan_equality_is_never_an_access_predicate(self):
        nan = float("nan")
        engine, naive = MatchingEngine(), NaiveMatchingEngine()
        only_nan = _sub("nan", Predicate("p", Operator.EQ, nan))
        nan_and_topic = _sub("nan+topic", Predicate("p", Operator.EQ, nan),
                             Predicate("topic", Operator.EQ, "x"))
        for subscription in (only_nan, nan_and_topic):
            engine.add(subscription)
            naive.add(subscription)
        assert _index_stats(engine) == (1, 1, 1, 1)
        assert engine._access[engine._slot_of["nan+topic"]][0] == "topic"
        for event in (_event(p=nan, topic="x"), _event(p=1, topic="x"), _event(p=nan)):
            assert engine.match(event) == naive.match(event) == []


class TestCachesAreForTheCountingPopulationOnly:
    """A cache's first consultation always resets it (it starts bound to no
    engine), so ``resets == 0`` means it was never consulted."""

    def test_engine_without_counting_subscriptions_leaves_the_caches_alone(self):
        engine = MatchingEngine()
        engine.add(_sub("a1", Predicate("topic", Operator.EQ, "x"),
                        Predicate("price", Operator.GE, 3)))
        route, batch = RouteProbeCache(), BatchMatchCache()
        events = [_event(topic="x", price=5), _event(topic="x", price=1), _event(topic="z")]
        assert [engine.matches_any_cached(event, route) for event in events] == [
            True, False, False]
        assert engine.match_batch_cached(events, batch) == [
            engine.match(event) for event in events]
        assert route.resets == batch.resets == 0

    def test_boolean_probe_answers_from_an_anchored_hit_before_the_cache(self):
        engine = MatchingEngine()
        engine.add(_sub("a1", Predicate("topic", Operator.EQ, "x")))
        engine.add(_sub("c1", Predicate("price", Operator.GE, 3)))
        route = RouteProbeCache()
        assert engine.matches_any_cached(_event(topic="x", price=5), route)
        assert route.resets == 0
        # Only the counting subscription can answer this one.
        assert engine.matches_any_cached(_event(topic="z", price=5), route)
        assert route.resets == 1


def _range_only(subscription_id: str, attribute: str, low: int) -> Subscription:
    return _sub(subscription_id, Predicate(attribute, Operator.GE, low))


class TestCacheEngineIdentity:
    """A cache outlives the engine it was filled from (``Broker.clear_remote``
    swaps the engine under a persistent ``RouteProbeCache``), and CPython
    hands the dead engine's address to the next one: identity must not be
    ``id()``.  The subscriptions are EQ-free so the probes reach the caches.
    """

    TRIALS = 20

    def test_route_probe_cache_does_not_answer_for_a_collected_engine(self):
        probe = _event(price=5)
        for _ in range(self.TRIALS):
            cache = RouteProbeCache()
            first = MatchingEngine()
            first.add(_range_only("r1", "price", 1))
            first.add(_range_only("r2", "price", 2))
            assert first.matches_any_cached(probe, cache)
            version = first.mutation_version
            del first
            second = MatchingEngine()  # lands on the freed address
            second.add(_range_only("r3", "volume", 1))
            second.add(_range_only("r4", "volume", 2))
            assert second.mutation_version == version
            assert second.matches_any(probe) is False
            assert second.matches_any_cached(probe, cache) is False

    def test_batch_match_cache_does_not_answer_for_a_collected_engine(self):
        probe = _event(price=5)
        for _ in range(self.TRIALS):
            cache = BatchMatchCache()
            first = MatchingEngine()
            first.add(_range_only("r1", "price", 1))
            first.add(_range_only("r2", "price", 2))
            assert len(first.match_batch_cached([probe], cache)[0]) == 2
            version = first.mutation_version
            del first
            second = MatchingEngine()
            second.add(_range_only("r3", "volume", 1))
            second.add(_range_only("r4", "volume", 2))
            assert second.mutation_version == version
            assert second.match_batch_cached([probe], cache) == [[]]
