"""Seeded workload generators: subscription sets and event streams.

Everything here is *plain data* (tuples of str/int/float) derived from
``--seed`` alone, so the same seed gives byte-identical inputs
(:func:`digest`) and the oracle (:mod:`oracle`) can evaluate matches
without touching the program under test.  ``to_subscription`` /
``to_event`` turn specs into the program's objects.

Three rules keep a workload's numbers a property of the workload rather
than of the seed or of replay:

* **Stratified, not sampled.**  Subscription populations have a fixed
  composition (so many per topic, so many of each predicate shape); the
  seed only permutes which id/broker/topic gets which member.  Event
  streams walk seeded permutations of the full attribute grid, so every
  run publishes the same multiset of attribute combinations per pass.
* **No event is published twice.**  Event ids are a run-wide counter.
* **Fixed attribute cardinalities.**  Every attribute takes values from a
  small fixed set, so the program's per-value probe caches converge and
  their hit ratio does not depend on how long the run is.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

EVENT_TYPE = "tick"


class SubSpec(NamedTuple):
    """One conjunctive subscription: ``topic == t`` plus optional
    ``priority >= priority_min`` and ``price_lo <= price <= price_hi``."""

    sub_id: str
    broker: str
    topic: str
    priority_min: Optional[int]
    price_lo: Optional[float]
    price_hi: Optional[float]


class EventSpec(NamedTuple):
    event_id: str
    topic: str
    priority: Optional[int]
    price: Optional[float]
    source: Optional[str]


class ChurnStep(NamedTuple):
    """One control-plane step of ``sim_churn``: subscribe ``subscribe`` at
    ``home``, publish ``events`` at ``ingress``, then unsubscribe
    ``unsubscribe`` (the previous step's batch) at ``previous_home``."""

    home: str
    ingress: str
    subscribe: Tuple[SubSpec, ...]
    events: Tuple[EventSpec, ...]
    previous_home: str
    unsubscribe: Tuple[SubSpec, ...]


def matches(sub: SubSpec, event: EventSpec) -> bool:
    """Reference semantics of a :class:`SubSpec` (the oracle's matcher)."""
    if sub.topic != event.topic:
        return False
    if sub.priority_min is not None and (
        event.priority is None or event.priority < sub.priority_min
    ):
        return False
    if sub.price_lo is not None and (
        event.price is None or not sub.price_lo <= event.price <= sub.price_hi
    ):
        return False
    return True


def _rng(seed: int, *scope: object) -> random.Random:
    # A string seed is hashed with SHA-512 by random.seed, so streams are
    # independent of PYTHONHASHSEED and of each other.
    return random.Random("e2e:%d:%s" % (seed, ":".join(str(part) for part in scope)))


def _price(step: int) -> float:
    """The ``step``-th of the 500 quantised price values."""
    return 5.0 + 0.25 * step


PRICE_STEPS = 500
PRIORITIES = 10


class _Walk:
    """Endless stratified walk: seeded permutations of ``items``, one full
    pass after another, each pass reshuffled."""

    def __init__(self, items: Sequence, seed: int, *scope: object) -> None:
        self._items = list(items)
        self._seed = seed
        self._scope = scope
        self._pass = 0
        self._pending: List = []

    def take(self, count: int) -> List:
        out: List = []
        while len(out) < count:
            if not self._pending:
                self._pending = list(self._items)
                _rng(self._seed, *self._scope, self._pass).shuffle(self._pending)
                self._pending.reverse()
                self._pass += 1
            out.append(self._pending.pop())
        return out


@dataclass(frozen=True)
class WireSizes:
    """Shared shape of the two wire workloads (line b0-b1-b2)."""

    #: Topics that carry subscriptions; each cycle of eight topics carries
    #: 1,2,3,4,4,5,6,7 of them (mean 4), so fan-out is skewed but fixed.
    subscribed_topics: int = 5000
    #: Topics nobody subscribes to (~2 % of events match nothing and must
    #: stop at the ingress broker).
    silent_topics: int = 100
    sources: int = 16

    @property
    def subscriptions(self) -> int:
        full, rest = divmod(self.subscribed_topics, len(_FANOUT_CYCLE))
        return full * sum(_FANOUT_CYCLE) + sum(_FANOUT_CYCLE[:rest])


_FANOUT_CYCLE = (1, 2, 3, 4, 4, 5, 6, 7)


class WireWorkload:
    """``wire_pipelined`` / ``wire_ackpaced``: topic-equality subscriptions
    at the far end of a three-broker line, publisher at the near end."""

    brokers = ("b0", "b1", "b2")
    publish_broker = "b0"
    subscribe_broker = "b2"

    def __init__(
        self, name: str, seed: int, events_per_round: int, batch: int, window: int
    ) -> None:
        self.name = name
        self.seed = seed
        self.sizes = WireSizes()
        self.events_per_round = events_per_round
        #: Events per ``publish_many`` frame (1 = one ``publish`` per event).
        self.batch = batch
        #: Closed-loop bound on published-but-undelivered events.
        self.window = window
        sizes = self.sizes
        topics = ["t%04d" % index for index in range(sizes.subscribed_topics)]
        _rng(seed, "wire-topics").shuffle(topics)
        self._subscribed = topics
        self._silent = [
            "t%04d" % (sizes.subscribed_topics + index)
            for index in range(sizes.silent_topics)
        ]
        self._walk = _Walk(self._subscribed + self._silent, seed, "wire-events")
        self._sources = _Walk(
            ["feed-%02d" % index for index in range(sizes.sources)], seed, "wire-src"
        )
        self._next_event = 0

    def subscriptions(self) -> List[SubSpec]:
        specs: List[SubSpec] = []
        for index, topic in enumerate(self._subscribed):
            for _ in range(_FANOUT_CYCLE[index % len(_FANOUT_CYCLE)]):
                specs.append(
                    SubSpec(
                        "s%06d" % len(specs), self.subscribe_broker, topic,
                        None, None, None,
                    )
                )
        return specs

    def round_events(self) -> List[EventSpec]:
        """The next round's events (fresh ids, next stretch of the walk)."""
        topics = self._walk.take(self.events_per_round)
        sources = self._sources.take(self.events_per_round)
        first = self._next_event
        self._next_event += len(topics)
        return [
            EventSpec("e%08d" % (first + offset), topic, None, None, source)
            for offset, (topic, source) in enumerate(zip(topics, sources))
        ]


@dataclass(frozen=True)
class FanoutSizes:
    brokers: int = 5
    topics: int = 200
    subs_per_topic: int = 200
    #: Share of each topic's subscriptions that add ``priority >= n``.
    priority_share: float = 0.30
    #: Share that add a price range.
    price_share: float = 0.50
    #: Width of a price range in quantisation steps (of 500).
    price_width_steps: Tuple[int, ...] = (40, 70, 100, 130, 160)

    @property
    def subscriptions(self) -> int:
        return self.topics * self.subs_per_topic


class FanoutWorkload:
    """``sim_fanout``: range-heavy subscriptions on a five-broker tree,
    ~100 matches per event, ingress rotating over all brokers."""

    name = "sim_fanout"
    topology = "tree"

    def __init__(self, seed: int, events_per_round: int, batch: int) -> None:
        self.seed = seed
        self.sizes = FanoutSizes()
        self.events_per_round = events_per_round
        self.batch = batch
        sizes = self.sizes
        self.brokers = tuple("b%d" % index for index in range(sizes.brokers))
        self.topics = ["t%03d" % index for index in range(sizes.topics)]
        grid = [
            (priority, step)
            for priority in range(PRIORITIES)
            for step in range(PRICE_STEPS)
        ]
        self._grid = _Walk(grid, seed, "fanout-grid")
        self._topics = _Walk(self.topics, seed, "fanout-topics")
        self._next_event = 0

    def _profiles(self) -> List[Tuple[Optional[int], Optional[int], Optional[int]]]:
        """The fixed per-topic population: (priority_min, lo_step, hi_step)."""
        sizes = self.sizes
        count = sizes.subs_per_topic
        profiles: List[Tuple[Optional[int], Optional[int], Optional[int]]] = []
        with_priority = int(count * sizes.priority_share)
        with_price = int(count * sizes.price_share)
        widths = sizes.price_width_steps
        for index in range(count):
            # Priority and price membership interleave at coprime strides so
            # every combination (neither / either / both) occurs at a fixed rate.
            priority_min = None
            if (index * 7) % count < with_priority:
                priority_min = 1 + (index % (PRIORITIES - 1))
            lo = hi = None
            if (index * 3) % count < with_price:
                width = widths[index % len(widths)]
                lo = (index * 37) % (PRICE_STEPS - width)
                hi = lo + width
            profiles.append((priority_min, lo, hi))
        return profiles

    def subscriptions(self) -> List[SubSpec]:
        profiles = self._profiles()
        specs: List[SubSpec] = []
        for topic in self.topics:
            for priority_min, lo, hi in profiles:
                specs.append((topic, priority_min, lo, hi))
        _rng(self.seed, "fanout-subs").shuffle(specs)
        brokers = self.brokers
        return [
            SubSpec(
                "s%06d" % index,
                brokers[index % len(brokers)],
                topic,
                priority_min,
                None if lo is None else _price(lo),
                None if hi is None else _price(hi),
            )
            for index, (topic, priority_min, lo, hi) in enumerate(specs)
        ]

    def round_events(self) -> List[EventSpec]:
        cells = self._grid.take(self.events_per_round)
        topics = self._topics.take(self.events_per_round)
        first = self._next_event
        self._next_event += len(cells)
        return [
            EventSpec("e%08d" % (first + offset), topic, priority, _price(step), None)
            for offset, (topic, (priority, step)) in enumerate(zip(topics, cells))
        ]


@dataclass(frozen=True)
class ChurnSizes:
    brokers: int = 6
    topics: int = 800
    #: Nested-range families per topic and nesting depth of the resident
    #: population: family f, level l is the range centre(f) +- (l+1)*step.
    families: int = 2
    levels: int = 5
    level_step: int = 4
    #: Subscriptions subscribed per step (and unsubscribed one step later).
    churn_batch: int = 100
    #: Events published per step (control calls : events is 200 : 16, the
    #: issue's 400 : 32 ratio at half the step size).
    step_events: int = 16

    @property
    def subscriptions(self) -> int:
        return self.topics * self.families * self.levels


class ChurnWorkload:
    """``sim_churn``: a six-broker ring whose resident subscriptions are
    nested price ranges (so covering prunes most of their routes).  Every
    step subscribes a batch at one broker, publishes through the mutated
    tables at the opposite broker, and unsubscribes the *previous* step's
    batch.  Half of each batch are covers wider than a whole resident
    family; the other half sit inside the covers issued one step earlier
    (and outside every resident range), so they are pruned on arrival and
    readmitted when their cover is retracted a step later."""

    name = "sim_churn"
    topology = "ring"

    def __init__(self, seed: int, steps_per_round: int) -> None:
        self.seed = seed
        self.sizes = ChurnSizes()
        self.steps_per_round = steps_per_round
        sizes = self.sizes
        self.events_per_round = steps_per_round * sizes.step_events
        self.brokers = tuple("b%d" % index for index in range(sizes.brokers))
        self.topics = ["t%03d" % index for index in range(sizes.topics)]
        self._family_walk = _Walk(
            [
                (topic, family)
                for topic in self.topics
                for family in range(sizes.families)
            ],
            seed,
            "churn-families",
        )
        self._topic_walk = _Walk(self.topics, seed, "churn-event-topics")
        # Prices stay within reach of the nested families (and the covers
        # around them), so most events match a few nesting levels.
        reach = (sizes.levels + 4) * sizes.level_step
        self._price_walk = _Walk(
            [
                self._centre(family) + delta
                for family in range(sizes.families)
                for delta in range(-reach, reach + 1)
            ],
            seed,
            "churn-event-prices",
        )
        self._next_event = 0
        self._next_step = 0
        self._previous: Tuple[str, Tuple[SubSpec, ...], List[Tuple[str, int]]] = (
            self.brokers[0], (), [],
        )

    def _centre(self, family: int) -> int:
        span = PRICE_STEPS // self.sizes.families
        return family * span + span // 2

    def _range(self, family: int, level: int) -> Tuple[float, float]:
        half = (level + 1) * self.sizes.level_step
        centre = self._centre(family)
        return _price(centre - half), _price(centre + half)

    def subscriptions(self) -> List[SubSpec]:
        sizes = self.sizes
        members = [
            (topic, family, level)
            for topic in self.topics
            for family in range(sizes.families)
            for level in range(sizes.levels)
        ]
        _rng(self.seed, "churn-subs").shuffle(members)
        brokers = self.brokers
        specs = []
        for index, (topic, family, level) in enumerate(members):
            lo, hi = self._range(family, level)
            specs.append(
                SubSpec("s%06d" % index, brokers[index % len(brokers)], topic, None, lo, hi)
            )
        return specs

    def round_steps(self) -> List[ChurnStep]:
        sizes = self.sizes
        brokers = self.brokers
        covers_per_step = sizes.churn_batch // 2
        steps: List[ChurnStep] = []
        for _ in range(self.steps_per_round):
            number = self._next_step
            self._next_step += 1
            home = brokers[number % len(brokers)]
            ingress = brokers[(number + len(brokers) // 2) % len(brokers)]
            previous_home, previous_batch, previous_covers = self._previous
            batch: List[SubSpec] = []
            covers = self._family_walk.take(covers_per_step)
            for offset, (topic, family) in enumerate(covers):
                # Wider than the widest resident of the family (level
                # ``levels - 1``), so no resident covers it.
                lo, hi = self._range(family, sizes.levels + 1 + offset % 3)
                batch.append(
                    SubSpec("c%06d-%03d" % (number, offset), home, topic, None, lo, hi)
                )
            for offset, (topic, family) in enumerate(previous_covers):
                # Inside last step's narrowest cover (level ``levels + 1``)
                # but beyond the widest resident range.
                edge = self._centre(family) + (sizes.levels + 1) * sizes.level_step
                batch.append(
                    SubSpec(
                        "n%06d-%03d" % (number, offset), home, topic, None,
                        _price(edge - sizes.level_step + 1), _price(edge),
                    )
                )
            first = self._next_event
            self._next_event += sizes.step_events
            events = tuple(
                EventSpec("e%08d" % (first + offset), topic, None, _price(step), None)
                for offset, (topic, step) in enumerate(
                    zip(
                        self._topic_walk.take(sizes.step_events),
                        self._price_walk.take(sizes.step_events),
                    )
                )
            )
            steps.append(
                ChurnStep(home, ingress, tuple(batch), events, previous_home, previous_batch)
            )
            self._previous = (home, tuple(batch), covers)
        return steps


def digest(items: Iterable) -> str:
    """SHA-256 over the ``repr`` of every spec (determinism fingerprint)."""
    sha = hashlib.sha256()
    for item in items:
        sha.update(repr(tuple(item)).encode("utf-8"))
    return sha.hexdigest()


# -- conversion to the program's objects (the only repro imports) ------------


def to_subscription(spec: SubSpec):
    from repro.pubsub.subscriptions import Operator, Predicate, Subscription

    predicates = [Predicate("topic", Operator.EQ, spec.topic)]
    if spec.priority_min is not None:
        predicates.append(Predicate("priority", Operator.GE, spec.priority_min))
    if spec.price_lo is not None:
        predicates.append(Predicate("price", Operator.GE, spec.price_lo))
        predicates.append(Predicate("price", Operator.LE, spec.price_hi))
    return Subscription(
        event_type=EVENT_TYPE,
        predicates=tuple(predicates),
        subscriber="bench",
        subscription_id=spec.sub_id,
    )


def to_event(spec: EventSpec):
    from repro.pubsub.events import Event

    attributes: Dict[str, object] = {"topic": spec.topic}
    if spec.priority is not None:
        attributes["priority"] = spec.priority
    if spec.price is not None:
        attributes["price"] = spec.price
    if spec.source is not None:
        attributes["source"] = spec.source
    return Event(event_type=EVENT_TYPE, attributes=attributes, event_id=spec.event_id)
