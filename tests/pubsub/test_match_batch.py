"""MatchingEngine.match_batch units."""

from __future__ import annotations

import pytest

from repro.pubsub.events import Event
from repro.pubsub.matching import MatchingEngine, NaiveMatchingEngine
from repro.pubsub.subscriptions import Operator, Predicate, Subscription


def _sub(topic=None, priority=None, subscriber="u", event_type="news.story"):
    predicates = []
    if topic is not None:
        predicates.append(Predicate("topic", Operator.EQ, topic))
    if priority is not None:
        predicates.append(Predicate("priority", Operator.GE, priority))
    return Subscription(
        event_type=event_type, predicates=tuple(predicates), subscriber=subscriber
    )


def _event(topic, priority=5, event_type="news.story"):
    return Event(
        event_type=event_type, attributes={"topic": topic, "priority": priority}
    )


@pytest.fixture
def engines():
    fast, naive = MatchingEngine(), NaiveMatchingEngine()
    for subscription in [
        _sub("alpha"),
        _sub("alpha", priority=7),
        _sub("beta"),
        _sub(priority=3),
        Subscription(event_type="news.story", subscriber="wild"),
        _sub("alpha", event_type="sys.log"),
    ]:
        fast.add(subscription)
        naive.add(subscription)
    return fast, naive


class TestMatchBatch:
    def test_equals_sequential_match(self, engines):
        fast, naive = engines
        events = [
            _event("alpha", 2),
            _event("alpha", 9),
            _event("beta", 1),
            _event("gamma", 8),
            _event("alpha", 9),  # repeat: served from the batch result cache
            _event("alpha", event_type="sys.log"),
        ]
        batch = fast.match_batch(events)
        for event, row in zip(events, batch):
            assert [s.subscription_id for s in row] == [
                s.subscription_id for s in naive.match(event)
            ]

    def test_cached_rows_are_independent_lists(self, engines):
        fast, _ = engines
        events = [_event("alpha", 9), _event("alpha", 9)]
        first, second = fast.match_batch(events)
        assert first == second
        first.clear()
        assert second  # mutating one row must not corrupt the cached copy

    def test_empty_batch(self, engines):
        fast, _ = engines
        assert fast.match_batch([]) == []

    def test_counters_clean_after_batch(self, engines):
        fast, naive = engines
        fast.match_batch([_event("alpha", 9) for _ in range(5)])
        # A subsequent single match must be unaffected by batch state.
        event = _event("alpha", 9)
        assert [s.subscription_id for s in fast.match(event)] == [
            s.subscription_id for s in naive.match(event)
        ]

    def test_naive_engine_batch(self, engines):
        _, naive = engines
        events = [_event("alpha", 9), _event("beta", 1)]
        assert naive.match_batch(events) == [naive.match(e) for e in events]
