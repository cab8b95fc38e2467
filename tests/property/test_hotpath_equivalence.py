"""Randomized equivalence tests for the optimized hot paths.

The optimized :class:`~repro.pubsub.matching.MatchingEngine` and the
single-pass BM25/TF-IDF scorers must be observationally identical to the
retained naive reference implementations (`NaiveMatchingEngine`,
`naive_bm25_score_all`, `naive_tfidf_score_all`) across randomized
workloads.  All randomness is driven by :class:`repro.sim.rng.SeededRNG`,
so every run exercises the same cases.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.index import InvertedIndex
from repro.ir.ranking import (
    BM25Ranker,
    TfIdfRanker,
    naive_bm25_score_all,
    naive_tfidf_score_all,
)
from repro.pubsub.events import Event
from repro.pubsub.matching import (
    BatchMatchCache,
    MatchingEngine,
    NaiveMatchingEngine,
    RouteProbeCache,
)
from repro.pubsub.subscriptions import Operator, Predicate, Subscription
from repro.sim.rng import SeededRNG

# ---------------------------------------------------------------------------
# Randomized workload generators
# ---------------------------------------------------------------------------

EVENT_TYPES = ["news.story", "ticker.quote", "sys.log"]
ATTRIBUTES = ["topic", "priority", "price", "source", "flag"]
STRINGS = ["alpha", "beta", "gamma", "alphabet", "be", ""]


def _random_value(rng: SeededRNG):
    kind = rng.randint(0, 3)
    if kind == 0:
        return rng.randint(-5, 20)
    if kind == 1:
        return round(rng.random() * 20 - 5, 3)
    if kind == 2:
        return rng.choice([s for s in STRINGS if s])
    return rng.choice([True, False])


def _random_predicate(rng: SeededRNG) -> Predicate:
    attribute = rng.choice(ATTRIBUTES)
    operator = rng.choice(list(Operator))
    if operator is Operator.EXISTS:
        return Predicate(attribute, operator)
    return Predicate(attribute, operator, _random_value(rng))


def _random_subscription(rng: SeededRNG, subscriber: str) -> Subscription:
    predicates = tuple(_random_predicate(rng) for _ in range(rng.randint(0, 3)))
    return Subscription(
        event_type=rng.choice(EVENT_TYPES),
        predicates=predicates,
        subscriber=subscriber,
    )


def _random_event(rng: SeededRNG) -> Event:
    attributes = {}
    for attribute in ATTRIBUTES:
        if rng.random() < 0.6:
            attributes[attribute] = _random_value(rng)
    if not attributes:
        attributes["topic"] = "alpha"
    return Event(event_type=rng.choice(EVENT_TYPES), attributes=attributes)


def _matched_ids(engine, event) -> list:
    return [subscription.subscription_id for subscription in engine.match(event)]


# ---------------------------------------------------------------------------
# MatchingEngine vs brute force
# ---------------------------------------------------------------------------


class TestMatchingEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23, 99])
    def test_match_equals_naive_across_random_workloads(self, seed):
        rng = SeededRNG(seed)
        fast, naive = MatchingEngine(), NaiveMatchingEngine()
        subscriptions = [_random_subscription(rng, f"user{i % 17}") for i in range(200)]
        for subscription in subscriptions:
            fast.add(subscription)
            naive.add(subscription)
        for _ in range(120):
            event = _random_event(rng)
            assert _matched_ids(fast, event) == _matched_ids(naive, event)
            assert fast.match_count(event) == naive.match_count(event)
            assert fast.matches_any(event) == naive.matches_any(event)
            assert fast.match_subscribers(event) == naive.match_subscribers(event)

    @pytest.mark.parametrize("seed", [3, 41])
    def test_match_equals_naive_under_churn(self, seed):
        """Interleaved add/remove/match stays equivalent (slot reuse path)."""
        rng = SeededRNG(seed)
        fast, naive = MatchingEngine(), NaiveMatchingEngine()
        alive = []
        for round_index in range(20):
            for i in range(15):
                subscription = _random_subscription(rng, f"user{i}")
                fast.add(subscription)
                naive.add(subscription)
                alive.append(subscription)
            removals = max(1, len(alive) // 3)
            for _ in range(removals):
                victim = alive.pop(rng.randint(0, len(alive) - 1))
                assert fast.remove(victim.subscription_id)
                assert naive.remove(victim.subscription_id)
            assert len(fast) == len(naive) == len(alive)
            for _ in range(10):
                event = _random_event(rng)
                assert _matched_ids(fast, event) == _matched_ids(naive, event)

    def test_duplicate_predicates_match_like_naive(self):
        """A conjunction repeating the same predicate still matches."""
        predicate = Predicate("topic", Operator.EQ, "alpha")
        subscription = Subscription(
            event_type="news.story", predicates=(predicate, predicate)
        )
        fast, naive = MatchingEngine(), NaiveMatchingEngine()
        fast.add(subscription)
        naive.add(subscription)
        event = Event(event_type="news.story", attributes={"topic": "alpha"})
        assert _matched_ids(fast, event) == _matched_ids(naive, event) == [
            subscription.subscription_id
        ]

    def test_remove_everything_leaves_empty_indexes(self):
        rng = SeededRNG(5)
        engine = MatchingEngine()
        subscriptions = [_random_subscription(rng, "u") for _ in range(100)]
        for subscription in subscriptions:
            engine.add(subscription)
        for subscription in subscriptions:
            assert engine.remove(subscription.subscription_id)
        assert len(engine) == 0
        assert engine.match(_random_event(rng)) == []
        # Internal structures fully drained (no leaked candidate entries).
        assert not engine._anchor_index
        assert not engine._exists_index
        assert not engine._range_index
        assert not engine._other_index
        assert not engine._wildcards


# ---------------------------------------------------------------------------
# Access-predicate index: mixed populations, every entry point, every step
# ---------------------------------------------------------------------------

NAN = float("nan")
# Hash-equal values of different types (1 / 1.0 / True, 0 / False), strings
# that look like numbers, and NaN: buckets collide and comparisons cross types.
MIXED_VALUES = [1, 1.0, True, 0, False, 2, 2.5, -1, "a", "ab", "b", "1", NAN]
MIXED_ATTRIBUTES = ["a", "b", "c", "d"]
NON_EQ_OPERATORS = [op for op in Operator if op is not Operator.EQ]


def _mixed_predicate(rng: SeededRNG, operator: Operator) -> Predicate:
    attribute = rng.choice(MIXED_ATTRIBUTES)
    if operator is Operator.EXISTS:
        return Predicate(attribute, operator)
    return Predicate(attribute, operator, rng.choice(MIXED_VALUES))


def _mixed_subscription(rng: SeededRNG, subscription_id: str) -> Subscription:
    """A wildcard, an EQ-free conjunction, or one with 1-3 EQ predicates
    (so the access predicate is a choice); sometimes with a duplicate."""
    kind = rng.random()
    if kind < 0.15:
        predicates = []
    elif kind < 0.45:
        predicates = [
            _mixed_predicate(rng, rng.choice(NON_EQ_OPERATORS))
            for _ in range(rng.randint(1, 3))
        ]
    else:
        predicates = [
            _mixed_predicate(rng, Operator.EQ) for _ in range(rng.randint(1, 3))
        ] + [
            _mixed_predicate(rng, rng.choice(NON_EQ_OPERATORS))
            for _ in range(rng.randint(0, 2))
        ]
    if predicates and rng.random() < 0.2:
        predicates.append(rng.choice(predicates))
    rng.shuffle(predicates)
    return Subscription(
        event_type=rng.choice(EVENT_TYPES[:2]),
        predicates=tuple(predicates),
        subscriber=f"user{rng.randint(0, 5)}",
        subscription_id=subscription_id,
    )


def _mixed_event(rng: SeededRNG) -> Event:
    attributes = {
        attribute: rng.choice(MIXED_VALUES)
        for attribute in MIXED_ATTRIBUTES
        if rng.random() < 0.6
    }
    return Event(event_type=rng.choice(EVENT_TYPES[:2]), attributes=attributes)


def check_mixed_population(seed: int, steps: int) -> None:
    """Drive MatchingEngine and the oracle through ``steps`` mutations drawn
    from ``SeededRNG(seed)`` and compare all seven entry points after each.

    Ids come from a pool of 24, so an ``add`` is often a re-add whose new
    definition moves the id between the anchored, counting and wildcard
    populations, and removals free slots that later adds reuse.  Both probe
    caches live for the whole run, across every mutation.
    """
    repro = f"repro: check_mixed_population(seed={seed}, steps={steps})"
    rng = SeededRNG(seed)
    fast, naive = MatchingEngine(), NaiveMatchingEngine()
    route_cache, batch_cache = RouteProbeCache(), BatchMatchCache()
    for step in range(steps):
        subscription_id = f"s{rng.randint(0, 23):02d}"
        if rng.random() < 0.3:
            assert fast.remove(subscription_id) == naive.remove(subscription_id), repro
        else:
            subscription = _mixed_subscription(rng, subscription_id)
            fast.add(subscription)
            naive.add(subscription)
        where = f"step {step}; {repro}"
        assert len(fast) == len(naive), where
        assert all(fast._anchor_index.values()), f"empty bucket kept at {where}"
        stats = fast.column_stats()
        wildcards = sum(1 for s in naive.subscriptions() if not s.predicates)
        assert stats["anchored"] + stats["counting"] + wildcards == len(naive), where

        events = [_mixed_event(rng) for _ in range(3)]
        expected = [naive.match(event) for event in events]
        assert fast.match_batch(events) == expected, where
        assert fast.match_batch_cached(events, batch_cache) == expected, where
        for event, matched in zip(events, expected):
            assert fast.match(event) == matched, where
            assert fast.match_count(event) == len(matched), where
            assert fast.matches_any(event) == bool(matched), where
            assert fast.matches_any_cached(event, route_cache) == bool(matched), where
            assert fast.match_subscribers(event) == naive.match_subscribers(event), where

    for subscription in naive.subscriptions():
        assert fast.remove(subscription.subscription_id), repro
    assert len(fast) == 0, repro
    for index in (fast._anchor_index, fast._exists_index, fast._range_index,
                  fast._other_index, fast._wildcards):
        assert not index, repro


class TestAccessIndexEquivalence:
    @pytest.mark.parametrize("seed", [0, 14, 2006])
    def test_fixed_seeds(self, seed):
        check_mixed_population(seed, steps=120)

    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_random_seeds(self, seed, steps):
        check_mixed_population(seed, steps)


# ---------------------------------------------------------------------------
# BM25 / TF-IDF vs naive scoring loops
# ---------------------------------------------------------------------------


def _random_corpus(rng: SeededRNG, index: InvertedIndex, num_docs: int) -> None:
    vocabulary = [f"word{i:03d}" for i in range(60)]
    for doc_index in range(num_docs):
        words = [rng.choice(vocabulary) for _ in range(rng.randint(5, 60))]
        index.add_text(f"doc{doc_index:04d}", " ".join(words))


def _random_query(rng: SeededRNG) -> list:
    terms = [f"word{rng.randint(0, 70):03d}" for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.3 and terms:
        terms.append(terms[0])  # duplicated query terms must contribute twice
    return terms


def _assert_scores_close(actual, expected):
    assert set(actual) == set(expected)
    for doc_id, score in expected.items():
        assert math.isclose(actual[doc_id], score, rel_tol=1e-9, abs_tol=1e-12)


class TestRankingEquivalence:
    @pytest.mark.parametrize("seed", [2, 11, 57])
    def test_bm25_score_all_matches_naive(self, seed):
        rng = SeededRNG(seed)
        index = InvertedIndex()
        _random_corpus(rng, index, 120)
        ranker = BM25Ranker(index)
        for _ in range(25):
            terms = _random_query(rng)
            _assert_scores_close(
                ranker.score_all(terms), naive_bm25_score_all(index, terms)
            )

    @pytest.mark.parametrize("seed", [4, 13])
    def test_bm25_weighted_and_cache_survive_mutation(self, seed):
        """Scores stay equivalent across add/remove churn (cache invalidation)."""
        rng = SeededRNG(seed)
        index = InvertedIndex()
        _random_corpus(rng, index, 80)
        ranker = BM25Ranker(index, k1=1.6, b=0.4)
        for round_index in range(10):
            terms = _random_query(rng)
            weights = {term: 0.5 + rng.random() for term in terms}
            _assert_scores_close(
                ranker.score_all(terms, term_weights=weights),
                naive_bm25_score_all(index, terms, k1=1.6, b=0.4, term_weights=weights),
            )
            # Mutate between queries: the version-keyed caches must refresh.
            index.remove(f"doc{rng.randint(0, 79):04d}")
            index.add_text(
                f"extra{round_index}", " ".join(_random_query(rng) * 3)
            )

    @pytest.mark.parametrize("seed", [6, 29])
    def test_tfidf_score_all_matches_naive(self, seed):
        rng = SeededRNG(seed)
        index = InvertedIndex()
        _random_corpus(rng, index, 100)
        ranker = TfIdfRanker(index)
        for _ in range(25):
            terms = _random_query(rng)
            _assert_scores_close(
                ranker.score_all(terms), naive_tfidf_score_all(index, terms)
            )

    @pytest.mark.parametrize("seed", [8, 17])
    def test_topk_rank_is_prefix_of_full_rank(self, seed):
        rng = SeededRNG(seed)
        index = InvertedIndex()
        _random_corpus(rng, index, 150)
        ranker = BM25Ranker(index)
        for _ in range(15):
            terms = _random_query(rng)
            full = ranker.rank(terms)
            for limit in (1, 5, 10, 200):
                top = ranker.rank(terms, limit=limit)
                assert top == full[: limit]

    def test_rank_order_matches_naive_tie_break(self):
        rng = SeededRNG(12)
        index = InvertedIndex()
        _random_corpus(rng, index, 100)
        ranker = BM25Ranker(index)
        for _ in range(10):
            terms = _random_query(rng)
            expected = sorted(
                naive_bm25_score_all(index, terms).items(),
                key=lambda item: (-item[1], item[0]),
            )
            assert [r.doc_id for r in ranker.rank(terms)] == [
                doc_id for doc_id, _ in expected
            ]


# ---------------------------------------------------------------------------
# Index mutation equivalence
# ---------------------------------------------------------------------------


class TestIndexChurnEquivalence:
    def test_churned_index_equals_fresh_rebuild(self):
        """add/remove churn leaves exactly the statistics of a fresh build."""
        rng = SeededRNG(21)
        churned = InvertedIndex()
        texts = {}
        for i in range(60):
            doc_id = f"doc{i:03d}"
            texts[doc_id] = " ".join(
                rng.choice([f"word{j:02d}" for j in range(30)])
                for _ in range(rng.randint(5, 40))
            )
            churned.add_text(doc_id, texts[doc_id])
        survivors = dict(texts)
        for doc_id in list(texts):
            if rng.random() < 0.5:
                assert churned.remove(doc_id)
                del survivors[doc_id]
        fresh = InvertedIndex()
        for doc_id, text in survivors.items():
            fresh.add_text(doc_id, text)

        assert churned.num_documents == fresh.num_documents
        assert churned.average_document_length == pytest.approx(
            fresh.average_document_length
        )
        assert churned.vocabulary() == fresh.vocabulary()
        for term in fresh.vocabulary():
            assert churned.postings(term) == fresh.postings(term)
            assert churned.document_frequency(term) == fresh.document_frequency(term)
        for doc_id in survivors:
            assert churned.terms_for_document(doc_id) == fresh.terms_for_document(doc_id)
