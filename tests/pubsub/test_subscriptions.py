"""Tests for predicates, subscriptions and covering relations."""

import pytest

from repro.pubsub.events import Event
from repro.pubsub.subscriptions import (
    Operator,
    Predicate,
    Subscription,
    TopicSubscription,
    minimal_cover,
    topic_subscription,
)


def make_event(**attrs):
    return Event(event_type="news.story", attributes=attrs)


class TestPredicate:
    def test_eq_and_ne(self):
        assert Predicate("topic", Operator.EQ, "sports").matches(make_event(topic="sports"))
        assert not Predicate("topic", Operator.EQ, "sports").matches(make_event(topic="politics"))
        assert Predicate("topic", Operator.NE, "sports").matches(make_event(topic="politics"))

    def test_numeric_comparisons(self):
        event = make_event(priority=5)
        assert Predicate("priority", Operator.GT, 3).matches(event)
        assert Predicate("priority", Operator.GE, 5).matches(event)
        assert Predicate("priority", Operator.LT, 10).matches(event)
        assert Predicate("priority", Operator.LE, 4).matches(event) is False

    def test_string_operators(self):
        event = make_event(url="http://example.com/feed.rss")
        assert Predicate("url", Operator.PREFIX, "http://example.com").matches(event)
        assert Predicate("url", Operator.CONTAINS, "feed").matches(event)
        assert not Predicate("url", Operator.PREFIX, "https://").matches(event)

    def test_exists(self):
        assert Predicate("topic", Operator.EXISTS).matches(make_event(topic="x"))
        assert not Predicate("missing", Operator.EXISTS).matches(make_event(topic="x"))

    def test_missing_attribute_never_matches(self):
        assert not Predicate("other", Operator.EQ, "x").matches(make_event(topic="x"))

    def test_type_mismatch_is_false_not_error(self):
        assert not Predicate("priority", Operator.GT, 3).matches(make_event(priority="high"))

    def test_value_required_for_non_exists(self):
        with pytest.raises(ValueError):
            Predicate("a", Operator.EQ)

    def test_empty_attribute_rejected(self):
        with pytest.raises(ValueError):
            Predicate("", Operator.EXISTS)


class TestPredicateCovering:
    def test_exists_covers_everything_on_attribute(self):
        broad = Predicate("p", Operator.EXISTS)
        assert broad.covers(Predicate("p", Operator.EQ, 5))
        assert not broad.covers(Predicate("q", Operator.EQ, 5))

    def test_ge_covers_higher_thresholds(self):
        assert Predicate("p", Operator.GE, 3).covers(Predicate("p", Operator.GE, 5))
        assert not Predicate("p", Operator.GE, 5).covers(Predicate("p", Operator.GE, 3))
        assert Predicate("p", Operator.GE, 3).covers(Predicate("p", Operator.EQ, 3))

    def test_le_and_lt_covering(self):
        assert Predicate("p", Operator.LE, 10).covers(Predicate("p", Operator.LE, 5))
        assert Predicate("p", Operator.LT, 10).covers(Predicate("p", Operator.EQ, 5))
        assert not Predicate("p", Operator.LT, 10).covers(Predicate("p", Operator.EQ, 15))

    def test_prefix_covering(self):
        assert Predicate("u", Operator.PREFIX, "http://a").covers(
            Predicate("u", Operator.PREFIX, "http://a/b")
        )
        assert Predicate("u", Operator.PREFIX, "http://a").covers(
            Predicate("u", Operator.EQ, "http://a/page")
        )

    def test_contains_covering(self):
        assert Predicate("t", Operator.CONTAINS, "feed").covers(
            Predicate("t", Operator.EQ, "myfeed.rss")
        )

    def test_strict_bound_covers_closed_bound_only_from_inside(self):
        # ``p > 5`` misses p = 5, which ``p >= 5`` and ``p == 5`` match.
        for strict, closed, inside, outside in (
            (Operator.GT, Operator.GE, 6, 5),
            (Operator.LT, Operator.LE, 4, 5),
        ):
            assert not Predicate("p", strict, outside).covers(Predicate("p", closed, 5))
            assert not Predicate("p", strict, outside).covers(Predicate("p", Operator.EQ, 5))
            assert Predicate("p", strict, outside).covers(Predicate("p", strict, 5))
            assert Predicate("p", strict, 5).covers(Predicate("p", closed, inside))
            assert Predicate("p", strict, 5).covers(Predicate("p", Operator.EQ, inside))
            assert Predicate("p", closed, 5).covers(Predicate("p", strict, 5))

    def test_identical_predicates_cover(self):
        predicate = Predicate("p", Operator.EQ, 1)
        assert predicate.covers(Predicate("p", Operator.EQ, 1))

    def test_string_operators_do_not_cover_non_string_equality(self):
        # PREFIX/CONTAINS match only string values: an event with y=5
        # matches ``y == 5`` but neither ``y prefix 5`` nor ``y contains "5"``.
        for operator in (Operator.PREFIX, Operator.CONTAINS):
            for value in (5, -0.5, True):
                narrow = Predicate("y", Operator.EQ, value)
                assert not Predicate("y", operator, "5").covers(narrow)
                assert not Predicate("y", operator, value).covers(narrow)
        assert Predicate("y", Operator.CONTAINS, 5).covers(
            Predicate("y", Operator.EQ, "-0.5")
        )


class TestSubscription:
    def test_matches_conjunction(self):
        subscription = Subscription(
            event_type="news.story",
            predicates=(
                Predicate("topic", Operator.EQ, "sports"),
                Predicate("priority", Operator.GE, 3),
            ),
        )
        assert subscription.matches(make_event(topic="sports", priority=5))
        assert not subscription.matches(make_event(topic="sports", priority=1))
        assert not subscription.matches(make_event(topic="politics", priority=5))

    def test_wrong_event_type_never_matches(self):
        subscription = Subscription(event_type="other", predicates=())
        assert not subscription.matches(make_event(topic="x"))

    def test_empty_predicates_match_all_of_type(self):
        subscription = Subscription(event_type="news.story")
        assert subscription.matches(make_event(anything="x"))

    def test_covering_between_subscriptions(self):
        broad = Subscription(
            event_type="news.story", predicates=(Predicate("topic", Operator.EQ, "sports"),)
        )
        narrow = Subscription(
            event_type="news.story",
            predicates=(
                Predicate("topic", Operator.EQ, "sports"),
                Predicate("priority", Operator.GE, 5),
            ),
        )
        assert broad.covers(narrow)
        assert not narrow.covers(broad)

    def test_cover_requires_same_event_type(self):
        a = Subscription(event_type="a")
        b = Subscription(event_type="b")
        assert not a.covers(b)

    def test_describe(self):
        subscription = topic_subscription("news.story", "topic", "sports", subscriber="u")
        assert "topic eq 'sports'" in subscription.describe()
        assert str(Subscription(event_type="t")) == "t: *"

    def test_ids_unique_and_attribute_names(self):
        a = topic_subscription("news.story", "topic", "sports")
        b = topic_subscription("news.story", "topic", "sports")
        assert a.subscription_id != b.subscription_id
        assert a.attribute_names() == ("topic",)

    def test_empty_event_type_rejected(self):
        with pytest.raises(ValueError):
            Subscription(event_type="")


class TestTopicSubscription:
    def test_matches_topic(self):
        subscription = TopicSubscription(topic="sports", subscriber="u")
        assert subscription.matches_topic("sports")
        assert not subscription.matches_topic("politics")

    def test_empty_topic_rejected(self):
        with pytest.raises(ValueError):
            TopicSubscription(topic="")


class TestMinimalCover:
    def test_removes_covered_subscriptions(self):
        broad = Subscription(
            event_type="news.story", predicates=(Predicate("priority", Operator.GE, 1),)
        )
        narrow = Subscription(
            event_type="news.story", predicates=(Predicate("priority", Operator.GE, 5),)
        )
        cover = minimal_cover([broad, narrow])
        assert cover == [broad]

    def test_keeps_unrelated_subscriptions(self):
        sports = topic_subscription("news.story", "topic", "sports")
        politics = topic_subscription("news.story", "topic", "politics")
        cover = minimal_cover([sports, politics])
        assert set(cover) == {sports, politics}

    def test_equivalent_subscriptions_keep_one(self):
        first = topic_subscription("news.story", "topic", "sports")
        second = topic_subscription("news.story", "topic", "sports")
        cover = minimal_cover([first, second])
        assert len(cover) == 1


class TestCoveringIndex:
    def _index(self):
        from repro.pubsub.subscriptions import CoveringIndex

        return CoveringIndex()

    def _sub(self, sid, *predicates, event_type="news.story"):
        return Subscription(
            event_type=event_type,
            predicates=tuple(predicates),
            subscriber="u",
            subscription_id=sid,
        )

    def test_first_cover_finds_equality_cover_by_lookup(self):
        index = self._index()
        cover = self._sub("s1", Predicate("topic", Operator.EQ, "sports"))
        index.add(cover, priority=1)
        index.add(
            self._sub("s2", Predicate("topic", Operator.EQ, "politics")), priority=2
        )
        target = self._sub(
            "s3",
            Predicate("topic", Operator.EQ, "sports"),
            Predicate("priority", Operator.GE, 3),
        )
        found = index.first_cover(target)
        assert found is not None and found.subscription_id == "s1"

    def test_first_cover_respects_priority_bound_and_exclusion(self):
        index = self._index()
        cover = self._sub("s1", Predicate("priority", Operator.GE, 1))
        index.add(cover, priority=5)
        target = self._sub("s2", Predicate("priority", Operator.GE, 4))
        assert index.first_cover(target) is cover
        assert index.first_cover(target, before=5) is None
        assert index.first_cover(cover, exclude="s1") is None

    def test_wildcard_subscription_covers_everything_of_its_type(self):
        index = self._index()
        index.add(self._sub("w1"), priority=1)
        target = self._sub("s1", Predicate("topic", Operator.EQ, "x"))
        assert index.first_cover(target).subscription_id == "w1"
        other_type = self._sub("s2", event_type="video.play")
        assert index.first_cover(other_type) is None

    def test_covered_by_finds_more_specific_entries(self):
        index = self._index()
        narrow = self._sub(
            "n1",
            Predicate("topic", Operator.EQ, "sports"),
            Predicate("priority", Operator.GE, 5),
        )
        unrelated = self._sub("n2", Predicate("topic", Operator.EQ, "politics"))
        index.add(narrow, priority=7)
        index.add(unrelated, priority=8)
        broad = self._sub("b1", Predicate("topic", Operator.EQ, "sports"))
        covered = index.covered_by(broad)
        assert [s.subscription_id for s in covered] == ["n1"]
        assert index.covered_by(broad, after=7) == []

    def test_discard_removes_all_bucket_entries(self):
        index = self._index()
        sub = self._sub("s1", Predicate("topic", Operator.EQ, "sports"))
        index.add(sub, priority=1)
        assert "s1" in index and len(index) == 1
        assert index.discard("s1") is True
        assert index.discard("s1") is False
        assert len(index) == 0
        target = self._sub("s2", Predicate("topic", Operator.EQ, "sports"))
        assert index.first_cover(target) is None

    def test_matches_brute_force_on_random_population(self):
        """Index answers must equal the pairwise covers() sweep."""
        from repro.sim.rng import SeededRNG

        rng = SeededRNG(71)
        topics = ["a", "b", "c"]
        population = []
        index = self._index()
        for i in range(120):
            predicates = []
            if rng.random() < 0.85:
                predicates.append(
                    Predicate("topic", Operator.EQ, topics[rng.randint(0, 2)])
                )
            if rng.random() < 0.5:
                predicates.append(
                    Predicate("priority", Operator.GE, rng.randint(1, 6))
                )
            sub = self._sub(f"r{i:03d}", *predicates)
            population.append((sub, i))
            index.add(sub, priority=i)
        live = {sub.subscription_id: (sub, priority) for sub, priority in population}
        for target, priority in population:
            self._assert_matches_sweep(
                index, live, target, priority, target.subscription_id,
                f"target={target.describe()} priority={priority}",
            )

    # -- index vs brute force on numeric ranges -------------------------------

    @staticmethod
    def _assert_matches_sweep(index, live, target, bound, exclude, note):
        """All three queries equal the pairwise ``covers()`` sweep over
        ``live`` (id -> (subscription, priority))."""
        expected_covers = sorted(
            sid
            for sid, (sub, priority) in live.items()
            if sid != exclude
            and (bound is None or priority < bound)
            and sub.covers(target)
        )
        got_covers = sorted(
            s.subscription_id
            for s in index.covers_of(target, before=bound, exclude=exclude)
        )
        assert got_covers == expected_covers, f"covers_of {note}"
        first = index.first_cover(target, before=bound, exclude=exclude)
        if expected_covers:
            assert first is not None, f"first_cover missed {note}"
            assert first.subscription_id in expected_covers, f"first_cover {note}"
        else:
            assert first is None, f"first_cover invented a cover {note}"
        expected_covered = sorted(
            sid
            for sid, (sub, priority) in live.items()
            if sid != exclude
            and (bound is None or priority > bound)
            and target.covers(sub)
        )
        got_covered = sorted(
            s.subscription_id
            for s in index.covered_by(target, after=bound, exclude=exclude)
        )
        assert got_covered == expected_covered, f"covered_by {note}"

    @staticmethod
    def _assert_no_empty_buckets(index, note):
        for bucket in index._types.values():
            assert bucket.by_signature, f"empty type bucket {note}"
            for fmap in bucket.by_signature.values():
                assert fmap and all(fmap.values()), f"empty signature bucket {note}"
            assert all(bucket.by_eq.values()), f"empty EQ bucket {note}"

    @staticmethod
    def _range_predicates(rng):
        """A conjunction over ``topic`` / ``price`` / ``qty`` drawing every
        shape the bounds filter must get right or stay out of."""
        lower, upper = (Operator.GE, Operator.GT), (Operator.LE, Operator.LT)
        numbers = (0, 1, 3, 5, 5.0, 5.5, 7, 9, float("inf"), float("-inf"))
        odd = (float("nan"), True, "5")
        predicates = []
        if rng.random() < 0.6:
            predicates.append(Predicate("topic", Operator.EQ, rng.choice("ab")))
        for attribute, presence in (("price", 0.9), ("qty", 0.3)):
            if rng.random() >= presence:
                continue
            kind = rng.randint(0, 9)
            if kind == 0:
                ops = (rng.choice(lower),)
            elif kind == 1:
                ops = (rng.choice(upper),)
            elif kind in (2, 3, 4):
                ops = (rng.choice(lower), rng.choice(upper))
            elif kind == 5:
                ops = (rng.choice(lower), rng.choice(lower))
            elif kind == 6:
                ops = (Operator.EQ,)
            else:
                ops = (rng.choice(lower + upper),)
            for op in ops:
                value = rng.choice(odd) if kind == 7 else rng.choice(numbers)
                predicates.append(Predicate(attribute, op, value))
            if kind == 8:
                predicates.append(
                    rng.choice(
                        (
                            Predicate(attribute, Operator.NE, 5),
                            Predicate(attribute, Operator.PREFIX, "5"),
                            Predicate(attribute, Operator.EXISTS),
                        )
                    )
                )
            elif kind == 9:
                predicates.append(Predicate(attribute, Operator.EQ, rng.choice(numbers)))
        rng.shuffle(predicates)
        return predicates

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_on_range_boxes(self, seed):
        """Two-sided, strict, EQ-on-the-edge, mixed-type and non-numeric
        constraints on the range attribute, under add / discard / re-add:
        the bounds filter must never change an answer."""
        from repro.sim.rng import SeededRNG

        rng = SeededRNG(seed)
        index = self._index()
        pool = [
            self._sub(f"x{seed}-{i:03d}", *self._range_predicates(rng))
            for i in range(70)
        ]
        live = {}
        priority = 0
        for step in range(150):
            priority += 1
            roll = rng.random()
            if live and roll < 0.25:
                touched = live.pop(rng.choice(sorted(live)))[0]
                assert index.discard(touched.subscription_id)
            elif live and roll < 0.4:
                touched = live[rng.choice(sorted(live))][0]
                index.add(touched, priority=priority)
                live[touched.subscription_id] = (touched, priority)
            else:
                touched = rng.choice(pool)
                index.add(touched, priority=priority)
                live[touched.subscription_id] = (touched, priority)
            assert len(index) == len(live)
            self._assert_no_empty_buckets(index, f"seed={seed} step={step}")
            for target in [touched] + rng.sample(pool, 3):
                bound = rng.choice((None, rng.randint(0, priority + 1)))
                exclude = rng.choice((None, target.subscription_id))
                note = (
                    f"seed={seed} step={step} bound={bound} exclude={exclude} "
                    f"target={target.describe()}"
                )
                self._assert_matches_sweep(index, live, target, bound, exclude, note)
        for subscription_id in sorted(live):
            index.discard(subscription_id)
        assert index._types == {} and len(index) == 0, f"seed={seed}"

    def test_strict_bound_does_not_cover_equality_on_the_edge(self):
        index = self._index()
        strict = self._sub("gt5", Predicate("price", Operator.GT, 5))
        loose = self._sub("ge5", Predicate("price", Operator.GE, 5))
        index.add(strict, priority=1)
        index.add(loose, priority=2)
        edge = self._sub("eq5", Predicate("price", Operator.EQ, 5))
        assert [s.subscription_id for s in index.covers_of(edge)] == ["ge5"]
        inside = self._sub("eq6", Predicate("price", Operator.EQ, 6.0))
        assert sorted(s.subscription_id for s in index.covers_of(inside)) == [
            "ge5",
            "gt5",
        ]
        outside = self._sub("eq4", Predicate("price", Operator.EQ, 4))
        assert index.first_cover(outside) is None
        index.add(edge, priority=3)
        assert sorted(
            s.subscription_id for s in index.covered_by(loose, exclude="ge5")
        ) == ["eq5", "gt5"]
        assert "eq5" not in {
            s.subscription_id for s in index.covered_by(strict, exclude="gt5")
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_conjunction_falls_back_to_signature_scan(self, seed):
        """Nine unpinned attributes give 512 candidate buckets, past the
        256-probe cap: both cover queries scan the signature buckets."""
        from repro.sim.rng import SeededRNG

        rng = SeededRNG(seed)
        attributes = [f"a{i}" for i in range(9)]
        index = self._index()
        live = {}
        for i in range(60):
            chosen = rng.sample(attributes, rng.randint(0, 4))
            if rng.random() < 0.2:
                chosen.append("elsewhere")
            sub = self._sub(
                f"w{seed}-{i:03d}",
                *(
                    Predicate(attr, rng.choice((Operator.GE, Operator.LE)), rng.randint(0, 6))
                    for attr in chosen
                ),
            )
            index.add(sub, priority=i)
            live[sub.subscription_id] = (sub, i)
        hits = 0
        for i in range(20):
            target = self._sub(
                f"wt{seed}-{i:03d}",
                *(
                    Predicate(attr, rng.choice((Operator.GE, Operator.LE)), rng.randint(0, 6))
                    for attr in attributes
                ),
            )
            assert target.covering_key().probes is None
            bound = rng.choice((None, rng.randint(0, 60)))
            note = f"seed={seed} bound={bound} target={target.describe()}"
            self._assert_matches_sweep(index, live, target, bound, None, note)
            hits += index.first_cover(target) is not None
        assert hits, f"seed={seed}: population too sparse for a fallback hit"


class TestPredicatePool:
    def test_predicates_intern_to_one_instance(self):
        from repro.pubsub.subscriptions import predicate_pool

        pool = predicate_pool()
        first, first_id = pool.intern_predicate(Predicate("topic", Operator.EQ, "sports"))
        second, second_id = pool.intern_predicate(Predicate("topic", Operator.EQ, "sports"))
        assert first is second
        assert first_id == second_id is not None
        assert pool.predicate(first_id) is first

    def test_subscription_predicates_are_canonical(self):
        a = topic_subscription("news.story", "topic", "sports")
        b = topic_subscription("news.story", "topic", "sports")
        assert a.predicates[0] is b.predicates[0]

    def test_signature_id_ignores_order_and_duplicates(self):
        p1 = Predicate("topic", Operator.EQ, "sports")
        p2 = Predicate("priority", Operator.GE, 3)
        base = Subscription(event_type="news.story", predicates=(p1, p2))
        reordered = Subscription(event_type="news.story", predicates=(p2, p1))
        duplicated = Subscription(event_type="news.story", predicates=(p1, p2, p1))
        assert base.signature_id() == reordered.signature_id()
        assert base.signature_id() == duplicated.signature_id()
        assert base.interned_shape() is reordered.interned_shape()
        # A different conjunction gets a different signature.
        other = Subscription(event_type="news.story", predicates=(p1,))
        assert other.signature_id() != base.signature_id()
        # Event type is part of the signature.
        retyped = Subscription(event_type="ticker.quote", predicates=(p1, p2))
        assert retyped.signature_id() != base.signature_id()

    def test_shape_carries_distinct_sorted_predicates(self):
        p1 = Predicate("topic", Operator.EQ, "sports")
        p2 = Predicate("priority", Operator.GE, 3)
        sub = Subscription(event_type="news.story", predicates=(p2, p1, p2))
        shape = sub.interned_shape()
        assert shape is not None
        assert len(shape.predicates) == 2
        assert shape.predicate_ids == tuple(sorted(shape.predicate_ids))
        assert shape.id_set == frozenset(shape.predicate_ids)

    def test_unhashable_value_falls_back_uninterned(self):
        predicate = Predicate("tags", Operator.EQ, ["a", "b"])
        sub = Subscription(event_type="news.story", predicates=(predicate,))
        assert sub.interned_shape() is None
        assert sub.signature_id() is None
        # Matching still works through the slow path.
        assert sub.matches(
            Event(event_type="news.story", attributes={"tags": ["a", "b"]})
        )

    def test_subscriber_interning_round_trips(self):
        from repro.pubsub.subscriptions import predicate_pool

        pool = predicate_pool()
        alice = pool.intern_subscriber("alice-pool-test")
        assert pool.intern_subscriber("alice-pool-test") == alice
        assert pool.subscriber(alice) == "alice-pool-test"
        assert pool.intern_subscriber("bob-pool-test") != alice
        stats = pool.stats()
        assert stats["predicates"] >= 1
        assert stats["signatures"] >= 1
        assert stats["subscribers"] >= 2

    def test_covers_fast_path_matches_semantics(self):
        p_topic = Predicate("topic", Operator.EQ, "sports")
        p_priority = Predicate("priority", Operator.GE, 3)
        wide = Subscription(event_type="news.story", predicates=(p_topic,))
        narrow = Subscription(event_type="news.story", predicates=(p_topic, p_priority))
        # Subset-of-ids fast path and the pairwise slow path must agree.
        assert wide.covers(narrow)
        assert not narrow.covers(wide)
        twin = Subscription(event_type="news.story", predicates=(p_topic,))
        assert wide.covers(twin) and twin.covers(wide)
        # Semantic covering without id-subset (GE 1 covers GE 3) still holds.
        loose = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 1),),
        )
        tight = Subscription(
            event_type="news.story",
            predicates=(Predicate("priority", Operator.GE, 3),),
        )
        assert loose.covers(tight)
        assert not tight.covers(loose)
