"""Property-based tests (hypothesis) on core data structures and invariants."""

from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ir.metrics import precision_at_k, recall_at_k
from repro.ir.stemming import PorterStemmer
from repro.ir.tokenize import TextAnalyzer, tokenize
from repro.pubsub.events import Event
from repro.pubsub.matching import MatchingEngine
from repro.pubsub.subscriptions import Operator, Predicate, Subscription
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import Histogram
from repro.sim.rng import SeededRNG, ZipfSampler

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

topics = st.sampled_from(["sports", "politics", "weather", "finance", "music"])
priorities = st.integers(min_value=0, max_value=9)
words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12)


def subscription_strategy():
    def build(topic, use_priority, threshold):
        predicates = [Predicate("topic", Operator.EQ, topic)]
        if use_priority:
            predicates.append(Predicate("priority", Operator.GE, threshold))
        return Subscription(event_type="news.story", predicates=tuple(predicates))

    return st.builds(build, topics, st.booleans(), priorities)


def event_strategy():
    return st.builds(
        lambda topic, priority: Event(
            event_type="news.story", attributes={"topic": topic, "priority": priority}
        ),
        topics,
        priorities,
    )


# ---------------------------------------------------------------------------
# Matching engine agrees with brute-force evaluation
# ---------------------------------------------------------------------------


class TestMatchingEngineProperties:
    @given(st.lists(subscription_strategy(), max_size=40), st.lists(event_strategy(), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_indexed_matching_equals_brute_force(self, subscriptions, events):
        engine = MatchingEngine()
        for subscription in subscriptions:
            engine.add(subscription)
        for event in events:
            expected = {s.subscription_id for s in subscriptions if s.matches(event)}
            actual = {s.subscription_id for s in engine.match(event)}
            assert actual == expected

    @given(st.lists(subscription_strategy(), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_remove_is_inverse_of_add(self, subscriptions):
        engine = MatchingEngine()
        for subscription in subscriptions:
            engine.add(subscription)
        for subscription in subscriptions:
            engine.remove(subscription.subscription_id)
        assert len(engine) == 0
        probe = Event(event_type="news.story", attributes={"topic": "sports", "priority": 5})
        assert engine.match(probe) == []


class TestCoveringProperties:
    @given(subscription_strategy(), event_strategy())
    @settings(max_examples=100, deadline=None)
    def test_covering_is_sound(self, subscription, event):
        """If A covers B then every event matching B matches A."""
        narrower = Subscription(
            event_type=subscription.event_type,
            predicates=subscription.predicates + (Predicate("priority", Operator.GE, 5),),
        )
        if subscription.covers(narrower) and narrower.matches(event):
            assert subscription.matches(event)

    @given(subscription_strategy())
    @settings(max_examples=50, deadline=None)
    def test_covering_is_reflexive(self, subscription):
        assert subscription.covers(subscription)


# ---------------------------------------------------------------------------
# IR invariants
# ---------------------------------------------------------------------------


class TestIrProperties:
    @given(words)
    @settings(max_examples=200, deadline=None)
    def test_stemmer_output_is_idempotent_prefix_free(self, word):
        stemmer = PorterStemmer()
        stem = stemmer.stem(word)
        assert stem
        assert len(stem) <= len(word)
        # Stemming an already stemmed word never grows it.
        assert len(stemmer.stem(stem)) <= len(stem)

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_tokenizer_output_is_lowercase_alnum(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert any(ch.isalnum() for ch in token)

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_analyzer_frequencies_sum_to_length(self, text):
        analyzed = TextAnalyzer().analyze(text)
        assert sum(analyzed.term_frequencies.values()) == analyzed.length

    @given(
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=30, unique=True),
        st.sets(st.sampled_from("abcdefgh")),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_precision_recall_bounds(self, ranking, relevant, k):
        precision = precision_at_k(ranking, relevant, k)
        recall = recall_at_k(ranking, relevant, k)
        assert 0.0 <= precision <= 1.0
        assert 0.0 <= recall <= 1.0
        if not relevant:
            assert precision == 0.0 and recall == 0.0


# ---------------------------------------------------------------------------
# Simulation kernel invariants
# ---------------------------------------------------------------------------


class TestSimulationProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_events_always_execute_in_nondecreasing_time_order(self, delays):
        engine = SimulationEngine()
        fired = []
        for delay in delays:
            engine.schedule_at(delay, lambda eng: fired.append(eng.now))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
    @example([5e-324, 5e-324])
    @settings(max_examples=60, deadline=None)
    def test_histogram_percentiles_bounded_by_min_max(self, values):
        histogram = Histogram("x")
        for value in values:
            histogram.observe(value)
        assert histogram.minimum <= histogram.percentile(50) <= histogram.maximum
        # Tolerance covers float summation rounding when all samples are equal.
        span = max(abs(histogram.minimum), abs(histogram.maximum), 1.0)
        epsilon = 1e-9 * span
        assert histogram.minimum - epsilon <= histogram.mean <= histogram.maximum + epsilon
        assert histogram.count == len(values)

    @given(st.integers(min_value=1, max_value=200), st.floats(min_value=0.0, max_value=2.5))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_zipf_probabilities_form_distribution(self, n, exponent):
        sampler = ZipfSampler(n, exponent, SeededRNG(1))
        total = sum(sampler.probability(rank) for rank in range(n))
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(
            sampler.probability(rank) >= sampler.probability(rank + 1) - 1e-12
            for rank in range(n - 1)
        )

    @given(st.integers(min_value=0, max_value=2**31), st.lists(words, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_rng_forks_are_reproducible(self, seed, labels):
        first = SeededRNG(seed)
        second = SeededRNG(seed)
        for label in labels:
            first = first.fork(label)
            second = second.fork(label)
        assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]


# ---------------------------------------------------------------------------
# Event immutability
# ---------------------------------------------------------------------------


class TestEventProperties:
    @given(st.dictionaries(words, st.integers(min_value=0, max_value=100), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_with_attributes_never_mutates_original(self, attributes):
        event = Event(event_type="t", attributes=attributes)
        derived = event.with_attributes(extra=1)
        assert dict(event.attributes) == attributes
        assert derived.get("extra") == 1
        assert event.size_bytes() <= derived.size_bytes()
