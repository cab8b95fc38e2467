"""Per-operator equivalence: indexed engine and routed cluster ≡ oracle.

:class:`MatchingEngine` indexes each :class:`Operator` its own way
(equality buckets, sorted range bounds, string scans, existence sets,
counting fallbacks), and covering between subscriptions is decided per
operator pair.  The randomized workloads elsewhere mix operators, so a
defect confined to one operator and one value type shows up there only
as a rare, hard-to-read mismatch.  These grids give every operator, for
every predicate value type, its own case:

* the whole matching surface of the engine (``match``, ``match_count``,
  ``matches_any``, ``matches_any_cached``, ``match_subscribers``,
  ``match_batch``, ``match_batch_cached``) before and after removals
  equals :class:`NaiveMatchingEngine`, event by event;
* ``covers`` is sound on the case's population plus every ordering
  operator at each of the case's values (a cover and its target that share
  a bound, where open and closed ends differ), and ``any_covering`` agrees
  with the oracle;
* a routed :class:`BrokerCluster` on each topology delivers exactly the
  oracle's match sets, so covering-based forwarding loses nothing.

All randomness is seeded from the case name.
"""

from __future__ import annotations

import pytest

from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.pubsub.events import Event
from repro.pubsub.matching import (
    BatchMatchCache,
    MatchingEngine,
    NaiveMatchingEngine,
    RouteProbeCache,
)
from repro.pubsub.subscriptions import Operator, Predicate, Subscription
from repro.sim.rng import SeededRNG, stable_hash

EVENT_TYPES = ["news.story", "ticker.quote"]
VALUES = {
    "int": [-3, 0, 1, 5, 12],
    "float": [-0.5, 0.0, 4.999, 5.0, 11.25],
    "str": ["alpha", "alp", "beta", "5", ""],
    "bool": [True, False],
}
VALUE_KINDS = sorted(VALUES)
VALUED_OPERATORS = [op for op in Operator if op is not Operator.EXISTS]
EVENT_VALUES = (
    [value for kind in VALUE_KINDS for value in VALUES[kind]]
    + ["alphabet", "12x", "xalpha", "5.0"]
    + [float("nan")]
)


def _cases():
    cases = [
        pytest.param(op, kind, id=f"{op.value}-{kind}")
        for op in VALUED_OPERATORS
        for kind in VALUE_KINDS
    ]
    cases.append(pytest.param(Operator.EXISTS, None, id="exists"))
    return cases


def _rng(*parts) -> SeededRNG:
    return SeededRNG(stable_hash("/".join(str(part) for part in parts)))


def _predicate(rng: SeededRNG, attribute: str, op: Operator, kind) -> Predicate:
    if op is Operator.EXISTS:
        return Predicate(attribute, op)
    return Predicate(attribute, op, rng.choice(VALUES[kind]))


def _population(rng, op, kind, count, subscribers=11):
    """Subscriptions whose first predicate is ``op`` on ``x``.

    A third also constrain ``y`` with a random operator so conjunctions
    reach the counting path; a few are wildcards on the event type.
    """
    subscriptions = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.08:
            predicates = ()
        else:
            predicates = (_predicate(rng, "x", op, kind),)
            if roll > 0.66:
                other = rng.choice(list(Operator))
                other_kind = None if other is Operator.EXISTS else rng.choice(
                    VALUE_KINDS
                )
                predicates += (_predicate(rng, "y", other, other_kind),)
        subscriptions.append(
            Subscription(
                event_type=rng.choice(EVENT_TYPES),
                predicates=predicates,
                subscriber=f"user{i % subscribers}",
            )
        )
    return subscriptions


ORDERING_OPERATORS = (Operator.EQ, Operator.GT, Operator.GE, Operator.LT, Operator.LE)


def _shared_bounds(kind):
    """One single-predicate subscription per ordering operator and value,
    with an event carrying exactly that value: ``x > 5`` next to
    ``x >= 5`` and ``x = 5``."""
    values = VALUES[kind] if kind is not None else []
    subscriptions = [
        Subscription(event_type="news.story", predicates=(Predicate("x", op, value),))
        for value in values
        for op in ORDERING_OPERATORS
    ]
    events = [Event(event_type="news.story", attributes={"x": value}) for value in values]
    return subscriptions, events


def _events(rng, count):
    events = []
    for _ in range(count):
        attributes = {}
        for attribute in ("x", "y", "z"):
            if rng.random() < 0.75:
                attributes[attribute] = rng.choice(EVENT_VALUES)
        events.append(Event(event_type=rng.choice(EVENT_TYPES), attributes=attributes))
    return events


def _ids(subscriptions) -> list:
    return [subscription.subscription_id for subscription in subscriptions]


def _assert_surface_equal(engine, oracle, events):
    probe_cache = RouteProbeCache()
    batch_cache = BatchMatchCache()
    expected = [_ids(oracle.match(event)) for event in events]
    for event, want in zip(events, expected):
        assert _ids(engine.match(event)) == want
        assert engine.match_count(event) == oracle.match_count(event) == len(want)
        assert engine.matches_any(event) == oracle.matches_any(event) == bool(want)
        assert engine.matches_any_cached(event, probe_cache) == bool(want)
        assert engine.match_subscribers(event) == oracle.match_subscribers(event)
    assert [_ids(row) for row in engine.match_batch(events)] == expected
    # Twice through one cache: the second pass answers from its tables.
    for _ in range(2):
        assert [_ids(row) for row in engine.match_batch_cached(events, batch_cache)] == (
            expected
        )
    return expected


class TestEngineOperatorGrid:
    @pytest.mark.parametrize("op,kind", _cases())
    def test_matching_surface_equals_oracle(self, op, kind):
        rng = _rng("engine", op.value, kind)
        engine = MatchingEngine()
        oracle = NaiveMatchingEngine()
        subscriptions = _population(rng, op, kind, 90)
        engine.add_many(subscriptions)
        for subscription in subscriptions:
            oracle.add(subscription)
        events = _events(rng, 70)
        expected = _assert_surface_equal(engine, oracle, events)
        assert any(expected), "no event matched: the case is vacuous"

        victims = rng.sample(subscriptions, len(subscriptions) // 3)
        for victim in victims:
            assert engine.remove(victim.subscription_id)
            assert oracle.remove(victim.subscription_id)
        assert len(engine) == len(oracle) == len(subscriptions) - len(victims)
        _assert_surface_equal(engine, oracle, events)


class TestCoveringOperatorGrid:
    @pytest.mark.parametrize("op,kind", _cases())
    def test_covering_is_sound_and_any_covering_equals_oracle(self, op, kind):
        rng = _rng("covering", op.value, kind)
        subscriptions = _population(rng, op, kind, 40)
        events = _events(rng, 60)
        bounded, bound_events = _shared_bounds(kind)
        subscriptions += bounded
        events += bound_events
        proper_covers = 0
        for broad in subscriptions:
            for narrow in subscriptions:
                if broad is narrow or not broad.covers(narrow):
                    continue
                proper_covers += 1
                for event in events:
                    if narrow.matches(event):
                        assert broad.matches(event), (broad, narrow, event)
        # Wildcards cover every same-type subscription, so soundness is
        # checked on real pairs in every case.
        assert proper_covers > 0

        engine = MatchingEngine()
        oracle = NaiveMatchingEngine()
        half = len(subscriptions) // 2
        for subscription in subscriptions[:half]:
            engine.add(subscription)
            oracle.add(subscription)
        for probe in subscriptions[half:] + _population(rng, op, kind, 20):
            assert engine.any_covering(probe) == oracle.any_covering(probe)


class TestRoutedOperatorGrid:
    @pytest.mark.parametrize("topology", ["line", "star", "tree"])
    @pytest.mark.parametrize("op", list(Operator), ids=lambda op: op.value)
    def test_routed_deliveries_equal_oracle(self, op, topology):
        rng = _rng("routed", op.value, topology)
        cluster = BrokerCluster(service_rate=5000.0, link_latency=0.001)
        names = build_cluster_topology(topology, 4, cluster)
        subscriptions = []
        for kind in VALUE_KINDS:
            subscriptions += _population(
                rng, op, None if op is Operator.EXISTS else kind, 15
            )
        for subscription in subscriptions:
            cluster.subscribe(names[rng.randint(0, len(names) - 1)], subscription)
        delivered = {}
        cluster.on_delivery(
            lambda broker, subscriber, event, subscription: delivered.setdefault(
                event.event_id, []
            ).append(subscription.subscription_id)
        )
        events = _events(rng, 50)
        at = 0.0
        for event in events:
            at += rng.expovariate(500.0)
            cluster.publish_at(at, names[rng.randint(0, len(names) - 1)], event)
        cluster.run()

        oracle = NaiveMatchingEngine()
        for subscription in subscriptions:
            oracle.add(subscription)
        expected = {}
        for event in events:
            matched = _ids(oracle.match(event))
            if matched:
                expected[event.event_id] = sorted(matched)
        assert expected, "no event matched: the case is vacuous"
        assert {
            event_id: sorted(ids) for event_id, ids in delivered.items()
        } == expected
        assert cluster.metrics.counter("cluster.events_forwarded").value > 0
