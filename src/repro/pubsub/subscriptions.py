"""Subscriptions: predicates over event attributes.

A :class:`Subscription` is a conjunction of :class:`Predicate` constraints
over one event type (the Siena/Gryphon model).  Topic subscriptions are the
degenerate case used by the SCRIBE-style substrate and by Reef's feed
subscriptions.  Covering relations between subscriptions are implemented so
the content-based router can avoid forwarding redundant subscriptions
upstream.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.pubsub.events import AttributeValue, Event

_subscription_counter = itertools.count(1)


def _next_subscription_id() -> str:
    return f"sub-{next(_subscription_counter):08d}"


class Operator(str, enum.Enum):
    """Comparison operators available in subscription predicates."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    PREFIX = "prefix"
    CONTAINS = "contains"
    EXISTS = "exists"


@dataclass(frozen=True)
class Predicate:
    """A single constraint on one attribute."""

    attribute: str
    operator: Operator
    value: Optional[AttributeValue] = None

    def __post_init__(self) -> None:
        if not self.attribute:
            raise ValueError("predicate attribute cannot be empty")
        if self.operator is not Operator.EXISTS and self.value is None:
            raise ValueError(f"operator {self.operator.value} requires a value")

    def __hash__(self) -> int:
        # The generated dataclass hash rebuilds the field tuple per call;
        # interning hashes every predicate on every pool probe, so memoize
        # it (unhashable values still raise TypeError, as before).
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash((self.attribute, self.operator, self.value))
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, object]:
        # String hashes are salted per process: never ship the memoized
        # hash through pickle (the loading process recomputes its own).
        return {
            "attribute": self.attribute,
            "operator": self.operator,
            "value": self.value,
        }

    def matches(self, event: Event) -> bool:
        """True if the event satisfies this predicate."""
        if not event.has(self.attribute):
            return False
        actual = event.get(self.attribute)
        if self.operator is Operator.EXISTS:
            return True
        expected = self.value
        try:
            if self.operator is Operator.EQ:
                return actual == expected
            if self.operator is Operator.NE:
                return actual != expected
            if self.operator is Operator.LT:
                return actual < expected  # type: ignore[operator]
            if self.operator is Operator.LE:
                return actual <= expected  # type: ignore[operator]
            if self.operator is Operator.GT:
                return actual > expected  # type: ignore[operator]
            if self.operator is Operator.GE:
                return actual >= expected  # type: ignore[operator]
            if self.operator is Operator.PREFIX:
                return isinstance(actual, str) and actual.startswith(str(expected))
            if self.operator is Operator.CONTAINS:
                return isinstance(actual, str) and str(expected) in actual
        except TypeError:
            return False
        raise AssertionError(f"unhandled operator {self.operator}")  # pragma: no cover

    def covers(self, other: "Predicate") -> bool:
        """True if every event matching ``other`` also matches ``self``.

        Only predicates on the same attribute can cover each other.  The
        implementation handles the operator combinations needed by the
        router; unknown combinations conservatively return False.
        """
        if self is other:
            # Interned predicates make identical constraints pointer-equal,
            # so the common self-cover resolves without any field compares.
            return True
        if self.attribute != other.attribute:
            return False
        if self.operator is Operator.EXISTS:
            return True
        if self == other:
            return True
        s_op, s_val = self.operator, self.value
        o_op, o_val = other.operator, other.value
        try:
            if s_op is Operator.EQ:
                return o_op is Operator.EQ and o_val == s_val
            if s_op is Operator.GE:
                if o_op in (Operator.GE, Operator.EQ, Operator.GT):
                    return o_val >= s_val  # type: ignore[operator]
            if s_op is Operator.GT:
                if o_op in (Operator.GT, Operator.GE):
                    return o_val >= s_val  # type: ignore[operator]
                if o_op is Operator.EQ:
                    return o_val > s_val  # type: ignore[operator]
            if s_op is Operator.LE:
                if o_op in (Operator.LE, Operator.EQ, Operator.LT):
                    return o_val <= s_val  # type: ignore[operator]
            if s_op is Operator.LT:
                if o_op in (Operator.LT, Operator.LE):
                    return o_val <= s_val  # type: ignore[operator]
                if o_op is Operator.EQ:
                    return o_val < s_val  # type: ignore[operator]
            # PREFIX/CONTAINS only match string values, so they cannot
            # cover an equality on a number or a bool (``5 == 5`` matches,
            # ``"5" in 5`` does not).
            if s_op is Operator.PREFIX:
                if o_op is Operator.PREFIX:
                    return str(o_val).startswith(str(s_val))
                if o_op is Operator.EQ:
                    return isinstance(o_val, str) and o_val.startswith(str(s_val))
            if s_op is Operator.CONTAINS:
                if o_op is Operator.CONTAINS:
                    return str(s_val) in str(o_val)
                if o_op is Operator.EQ:
                    return isinstance(o_val, str) and str(s_val) in o_val
        except TypeError:
            return False
        return False

    def __str__(self) -> str:
        if self.operator is Operator.EXISTS:
            return f"{self.attribute} exists"
        return f"{self.attribute} {self.operator.value} {self.value!r}"


#: Cache-miss sentinel (``None`` is a legitimate cached probe value).
_UNSET = object()


#: Fingerprint mark of an attribute no hashable ``EQ`` pins.
_ANY = ("*",)

_INF = float("inf")
_FLOOR_OPERATORS = frozenset((Operator.GE, Operator.GT, Operator.EQ))
_CEILING_OPERATORS = frozenset((Operator.LE, Operator.LT, Operator.EQ))


class CoveringKey(NamedTuple):
    """Everything a :class:`CoveringIndex` files and filters a conjunction
    by — a pure function of its distinct predicates, so every subscription
    on one interned shape shares one instance.  The first four fields
    depend only on the attributes and their ``EQ``-pinned values and are
    shared by all keys that agree on those (shapes that differ in their
    range values, typically).
    """

    #: Sorted distinct attributes.
    signature: Tuple[str, ...]
    #: Hashable ``EQ``-pinned values per attribute.
    eq_values: Dict[str, Tuple[AttributeValue, ...]]
    #: ``("eq", value)`` or ``("*",)`` per attribute of ``signature``.
    fingerprint: Tuple
    #: Every ``(signature, fingerprint)`` bucket a cover could occupy, or
    #: ``None`` past the cap of :func:`_compute_covering_probes`.
    probes: Optional[Tuple[Tuple[Tuple[str, ...], Tuple], ...]]
    #: ``attribute -> (lo, hi)``, see :func:`_numeric_bounds`.
    bounds: Dict[str, Tuple[AttributeValue, AttributeValue]]
    #: The first ``("*",)`` attribute with bounds (``None`` without one)
    #: and those bounds: what an index entry is filtered on.
    range_attribute: Optional[str]
    lo: AttributeValue
    hi: AttributeValue


def _numeric_bounds(
    predicates: Tuple["Predicate", ...],
) -> Dict[str, Tuple[AttributeValue, AttributeValue]]:
    """``attribute -> (lo, hi)`` for each attribute whose predicates are
    all ``GE/GT/LE/LT/EQ`` on an ``int``/``float`` that is not NaN (and
    not ``bool``): ``lo`` the largest lower/EQ value, ``hi`` the smallest
    upper/EQ value, ±inf when absent.

    By the operator table of :meth:`Predicate.covers`, a conjunction C
    covers T only if ``lo(C) <= lo(T)`` and ``hi(C) >= hi(T)`` on every
    attribute where both have bounds — a necessary condition that ignores
    strictness; ``covers()`` remains the judge.
    """
    bounds: Dict[str, Optional[Tuple[AttributeValue, AttributeValue]]] = {}
    for predicate in predicates:
        attribute = predicate.attribute
        held = bounds.get(attribute, (-_INF, _INF))
        if held is None:
            continue
        op, value = predicate.operator, predicate.value
        floor, ceiling = op in _FLOOR_OPERATORS, op in _CEILING_OPERATORS
        if (
            type(value) not in (int, float)
            or value != value
            or not (floor or ceiling)
        ):
            bounds[attribute] = None
            continue
        lo, hi = held
        if floor and value > lo:
            lo = value
        if ceiling and value < hi:
            hi = value
        bounds[attribute] = (lo, hi)
    return {attr: held for attr, held in bounds.items() if held is not None}


def _compute_covering_key(
    predicates: Tuple["Predicate", ...], skeletons: Dict[Tuple, Tuple]
) -> CoveringKey:
    """The :class:`CoveringKey` of a conjunction; ``skeletons`` interns
    its ``EQ``-only fields by content."""
    signature = tuple(sorted({predicate.attribute for predicate in predicates}))
    held_values: Dict[str, List[AttributeValue]] = {}
    for predicate in predicates:
        if predicate.operator is not Operator.EQ:
            continue
        try:
            hash(predicate.value)
        except TypeError:
            continue
        held = held_values.setdefault(predicate.attribute, [])
        if predicate.value not in held:
            held.append(predicate.value)
    eq_values = {attr: tuple(vals) for attr, vals in held_values.items()}
    content = (signature, tuple(eq_values.items()))
    skeleton = skeletons.get(content)
    if skeleton is None:
        fingerprint = tuple(
            ("eq", eq_values[attr][0]) if attr in eq_values else _ANY
            for attr in signature
        )
        probes = _compute_covering_probes(signature, eq_values)
        skeleton = skeletons[content] = (signature, eq_values, fingerprint, probes)
    bounds = _numeric_bounds(predicates)
    range_attribute, lo, hi = None, -_INF, _INF
    fingerprint = skeleton[2]
    for attr, mark in zip(signature, fingerprint):
        if mark is _ANY and attr in bounds:
            range_attribute = attr
            lo, hi = bounds[attr]
            break
    return CoveringKey(*skeleton, bounds, range_attribute, lo, hi)


def _compute_covering_probes(
    signature: Tuple[str, ...], eq_values: Dict[str, Tuple[AttributeValue, ...]]
) -> Optional[Tuple[Tuple[Tuple[str, ...], Tuple], ...]]:
    """Enumerate every :class:`CoveringIndex` bucket a cover of a
    conjunction with this signature and these EQ values could occupy, or
    ``None`` when the enumeration would be too combinatorial to beat the
    bucket-scan fallback.

    The probe set caps the enumerated probe *count*, not just the
    signature width: wide conjunctions (or many EQ values per attribute)
    multiply out, and past a point iterating thousands of bucket keys per
    cover query costs more than the index's fallback scan.
    """
    limit = 256
    enumerated: Optional[List[Tuple[Tuple[str, ...], Tuple]]] = []
    for size in range(len(signature) + 1):
        if enumerated is None:
            break
        for sig in itertools.combinations(signature, size):
            option_lists = [
                [("eq", value) for value in eq_values.get(attr, ())] + [_ANY]
                for attr in sig
            ]
            for fingerprint in itertools.product(*option_lists):
                enumerated.append((sig, fingerprint))
                if len(enumerated) > limit:
                    enumerated = None
                    break
            if enumerated is None:
                break
    return tuple(enumerated) if enumerated is not None else None


def _always(actual: object, expected: object) -> bool:
    return True


def _has_prefix(actual: object, expected: object) -> bool:
    return isinstance(actual, str) and actual.startswith(str(expected))


def _contains(actual: object, expected: object) -> bool:
    return isinstance(actual, str) and str(expected) in actual


#: ``test(actual, expected)`` per operator, for an attribute the event
#: carries: the same comparison :meth:`Predicate.matches` makes (which
#: stays an independent if-chain — it is the oracle's definition), with a
#: ``TypeError`` left to the caller to read as "no match".
_OPERATOR_TESTS = {
    Operator.EQ: operator.eq,
    Operator.NE: operator.ne,
    Operator.LT: operator.lt,
    Operator.LE: operator.le,
    Operator.GT: operator.gt,
    Operator.GE: operator.ge,
    Operator.PREFIX: _has_prefix,
    Operator.CONTAINS: _contains,
    Operator.EXISTS: _always,
}


def _compute_access_entries(
    predicates: Tuple["Predicate", ...],
) -> Tuple[Tuple[str, AttributeValue, Tuple], ...]:
    """One ``(attribute, value, residual)`` entry per predicate of a
    distinct conjunction that can be its *access predicate* in
    :class:`~repro.pubsub.matching.MatchingEngine`: an ``EQ`` whose value
    is not NaN (NaN equals nothing, but a hash lookup would find it by
    identity).  ``residual`` is every other predicate compiled to
    ``(attribute, test, expected)`` over :data:`_OPERATOR_TESTS`.
    """
    entries = []
    for index, predicate in enumerate(predicates):
        value = predicate.value
        if predicate.operator is Operator.EQ and value == value:
            residual = tuple(
                (other.attribute, _OPERATOR_TESTS[other.operator], other.value)
                for other in predicates[:index] + predicates[index + 1:]
            )
            entries.append((predicate.attribute, value, residual))
    return tuple(entries)


class SignatureShape(NamedTuple):
    """One interned conjunction signature shared by every subscription
    whose distinct predicate set (and event type) is identical."""

    signature_id: int
    predicate_ids: Tuple[int, ...]
    id_set: FrozenSet[int]
    predicates: Tuple[Predicate, ...]


class PredicatePool:
    """Process-wide interning tables for predicates and conjunction shapes.

    Real workloads issue thousands of near-identical subscriptions.  The
    pool canonicalizes every predicate to one shared instance with a dense
    integer id, and every subscription *signature* — ``(event type, sorted
    distinct predicate ids)`` — to a signature id backed by one shared
    :class:`SignatureShape`.  A million resident subscriptions then share
    a few hundred predicate/shape objects instead of carrying private
    object graphs, and hot-path covering/equality checks reduce to integer
    and set-of-int comparisons.

    Ids are process-local.  Pickled subscriptions drop their memoized
    shape (``Subscription.__getstate__``) and re-intern lazily wherever
    they are unpickled, so a subscription shipped to another process
    stays correct.
    Predicates with unhashable values cannot be interned; such
    subscriptions simply fall back to the uninterned slow paths.
    """

    __slots__ = ("_predicate_ids", "_predicates", "_signature_ids", "_shapes",
                 "_subscriber_ids", "_subscribers", "_covering_keys",
                 "_covering_skeletons", "_access_entries", "_shape_cache")

    def __init__(self) -> None:
        self._predicate_ids: Dict[Predicate, int] = {}
        self._predicates: List[Predicate] = []
        self._signature_ids: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        self._shapes: List[SignatureShape] = []
        self._subscriber_ids: Dict[str, int] = {}
        self._subscribers: List[str] = []
        # A covering-index key is a pure function of the signature:
        # computed once per shape, shared by every subscription on it (and
        # its EQ-only fields by every shape with the same pinned values).
        self._covering_keys: Dict[int, CoveringKey] = {}
        self._covering_skeletons: Dict[Tuple, Tuple] = {}
        # Likewise the matching engine's access-predicate candidates.
        self._access_entries: Dict[int, Tuple] = {}
        # Literal (event_type, predicates tuple) -> shape.  Predicates are
        # already canonical pooled instances with cached hashes by the
        # time shapes are looked up, so this turns the common repeat
        # lookup into one dict probe instead of a sort + id walk.
        self._shape_cache: Dict[Tuple[str, Tuple[Predicate, ...]],
                                Optional[SignatureShape]] = {}

    # -- predicates ---------------------------------------------------------

    def intern_predicate(self, predicate: Predicate) -> Tuple[Predicate, Optional[int]]:
        """Canonical ``(instance, id)`` for a predicate; id is ``None`` for
        uninternable (unhashable-value) predicates."""
        try:
            predicate_id = self._predicate_ids.get(predicate)
        except TypeError:
            return predicate, None
        if predicate_id is None:
            predicate_id = len(self._predicates)
            self._predicate_ids[predicate] = predicate_id
            self._predicates.append(predicate)
            return predicate, predicate_id
        return self._predicates[predicate_id], predicate_id

    def canonicalize(self, predicates: Tuple[Predicate, ...]) -> Tuple[Predicate, ...]:
        """Map each predicate to its canonical pooled instance (uninternable
        predicates pass through unchanged)."""
        return tuple(self.intern_predicate(predicate)[0] for predicate in predicates)

    def predicate(self, predicate_id: int) -> Predicate:
        return self._predicates[predicate_id]

    # -- signatures ---------------------------------------------------------

    def shape_for(
        self, event_type: str, predicates: Sequence[Predicate]
    ) -> Optional[SignatureShape]:
        """The shared :class:`SignatureShape` for a conjunction, interning
        as needed; ``None`` when any predicate is uninternable."""
        try:
            cache_key = (event_type, tuple(predicates))
            cached = self._shape_cache.get(cache_key, _UNSET)
        except TypeError:
            # An unhashable predicate value: the conjunction cannot be
            # interned (and could never hit the cache anyway).
            return None
        if cached is not _UNSET:
            return cached
        ids: List[int] = []
        seen: Set[int] = set()
        for predicate in predicates:
            _canonical, predicate_id = self.intern_predicate(predicate)
            if predicate_id is None:
                return None
            if predicate_id not in seen:
                seen.add(predicate_id)
                ids.append(predicate_id)
        key = (event_type, tuple(sorted(ids)))
        signature_id = self._signature_ids.get(key)
        if signature_id is None:
            signature_id = len(self._shapes)
            self._signature_ids[key] = signature_id
            sorted_ids = key[1]
            self._shapes.append(
                SignatureShape(
                    signature_id=signature_id,
                    predicate_ids=sorted_ids,
                    id_set=frozenset(sorted_ids),
                    predicates=tuple(self._predicates[pid] for pid in sorted_ids),
                )
            )
        shape = self._shapes[signature_id]
        self._shape_cache[cache_key] = shape
        return shape

    def shape(self, signature_id: int) -> SignatureShape:
        return self._shapes[signature_id]

    def covering_key_for(self, shape: SignatureShape) -> CoveringKey:
        """Shared :class:`CoveringKey` for every subscription on
        ``shape`` (see :meth:`Subscription.covering_key`)."""
        key = self._covering_keys.get(shape.signature_id)
        if key is None:
            key = _compute_covering_key(shape.predicates, self._covering_skeletons)
            self._covering_keys[shape.signature_id] = key
        return key

    def access_entries_for(self, shape: SignatureShape) -> Tuple:
        """Shared access-predicate candidates (with their residuals) for
        every subscription on ``shape`` (see
        :func:`_compute_access_entries`); empty when it has none."""
        entries = self._access_entries.get(shape.signature_id)
        if entries is None:
            entries = _compute_access_entries(shape.predicates)
            self._access_entries[shape.signature_id] = entries
        return entries

    # -- subscribers --------------------------------------------------------

    def intern_subscriber(self, name: str) -> int:
        subscriber_id = self._subscriber_ids.get(name)
        if subscriber_id is None:
            subscriber_id = len(self._subscribers)
            self._subscriber_ids[name] = subscriber_id
            self._subscribers.append(name)
        return subscriber_id

    def subscriber(self, subscriber_id: int) -> str:
        return self._subscribers[subscriber_id]

    def stats(self) -> Dict[str, int]:
        return {
            "predicates": len(self._predicates),
            "signatures": len(self._shapes),
            "subscribers": len(self._subscribers),
        }


#: Process-global pool shared by every engine and fabric in-process.
PREDICATE_POOL = PredicatePool()


def predicate_pool() -> PredicatePool:
    """The process-global :class:`PredicatePool`."""
    return PREDICATE_POOL


@dataclass(frozen=True)
class Subscription:
    """A conjunctive content-based subscription on one event type."""

    event_type: str
    predicates: Tuple[Predicate, ...] = ()
    subscriber: str = ""
    subscription_id: str = field(default_factory=_next_subscription_id)

    def __post_init__(self) -> None:
        if not self.event_type:
            raise ValueError("subscription event_type cannot be empty")
        object.__setattr__(
            self, "predicates", PREDICATE_POOL.canonicalize(tuple(self.predicates))
        )

    def __getstate__(self) -> Dict[str, object]:
        # Pool ids and covering memos are process-local; pickles carry only
        # the declared fields and re-intern lazily wherever they are loaded.
        return {
            "event_type": self.event_type,
            "predicates": self.predicates,
            "subscriber": self.subscriber,
            "subscription_id": self.subscription_id,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Re-intern against the *local* process pool so unpickled copies
        # share pooled predicate instances like natively built ones.
        state["predicates"] = PREDICATE_POOL.canonicalize(tuple(state["predicates"]))
        self.__dict__.update(state)

    def interned_shape(self) -> Optional[SignatureShape]:
        """Cached shared :class:`SignatureShape` of this conjunction, or
        ``None`` when a predicate value is unhashable."""
        shape = self.__dict__.get("_interned_shape", False)
        if shape is False:
            shape = PREDICATE_POOL.shape_for(self.event_type, self.predicates)
            object.__setattr__(self, "_interned_shape", shape)
        return shape

    def signature_id(self) -> Optional[int]:
        """Interned id of this subscription's conjunction signature: equal
        ids mean equal event type and equal distinct predicate sets."""
        shape = self.interned_shape()
        return None if shape is None else shape.signature_id

    def matches(self, event: Event) -> bool:
        if event.event_type != self.event_type:
            return False
        return all(predicate.matches(event) for predicate in self.predicates)

    def covers(self, other: "Subscription") -> bool:
        """True if every event matched by ``other`` is matched by ``self``.

        A subscription covers another when they are on the same event type
        and each of this subscription's predicates is covered by (i.e. at
        least as general as) some predicate of the other subscription.
        When both sides are interned, the common cases — identical
        signatures, or a predicate-id subset (each predicate covers
        itself) — resolve on integer sets without touching ``covers()``.
        """
        if self.event_type != other.event_type:
            return False
        shape = self.interned_shape()
        if shape is not None:
            other_shape = other.interned_shape()
            if other_shape is not None and shape.id_set <= other_shape.id_set:
                return True
        for own in self.predicates:
            if not any(own.covers(theirs) for theirs in other.predicates):
                return False
        return True

    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(sorted({predicate.attribute for predicate in self.predicates}))

    def covering_key(self) -> CoveringKey:
        """Cached :class:`CoveringKey`: signature, EQ fingerprint and
        numeric bounds, everything a :class:`CoveringIndex` files and
        filters this subscription by.

        The subscription is immutable, so it is computed once (per
        interned shape) and memoized on the instance; callers must not
        mutate the returned dicts.
        """
        key = self.__dict__.get("_covering_key")
        if key is None:
            shape = self.interned_shape()
            if shape is not None:
                # Shared across every subscription with this signature.
                key = PREDICATE_POOL.covering_key_for(shape)
            else:
                key = _compute_covering_key(self.predicates, {})
            object.__setattr__(self, "_covering_key", key)
        return key

    def describe(self) -> str:
        if not self.predicates:
            return f"{self.event_type}: *"
        clauses = " AND ".join(str(predicate) for predicate in self.predicates)
        return f"{self.event_type}: {clauses}"

    def __str__(self) -> str:
        return self.describe()


def topic_subscription(
    event_type: str, topic_attribute: str, topic: str, subscriber: str = ""
) -> Subscription:
    """Build the common "topic equals X" subscription."""
    return Subscription(
        event_type=event_type,
        predicates=(Predicate(topic_attribute, Operator.EQ, topic),),
        subscriber=subscriber,
    )


@dataclass(frozen=True)
class TopicSubscription:
    """A pure topic (channel) subscription for the SCRIBE-style substrate."""

    topic: str
    subscriber: str = ""
    subscription_id: str = field(default_factory=_next_subscription_id)

    def __post_init__(self) -> None:
        if not self.topic:
            raise ValueError("topic cannot be empty")

    def matches_topic(self, topic: str) -> bool:
        return self.topic == topic


class SubscriptionTable:
    """A per-subscriber registry of active subscriptions."""

    def __init__(self) -> None:
        self._by_id: Dict[str, Subscription] = {}
        self._by_subscriber: Dict[str, List[str]] = {}

    def add(self, subscription: Subscription) -> None:
        self._by_id[subscription.subscription_id] = subscription
        self._by_subscriber.setdefault(subscription.subscriber, []).append(
            subscription.subscription_id
        )

    def remove(self, subscription_id: str) -> Optional[Subscription]:
        subscription = self._by_id.pop(subscription_id, None)
        if subscription is None:
            return None
        ids = self._by_subscriber.get(subscription.subscriber, [])
        if subscription_id in ids:
            ids.remove(subscription_id)
        return subscription

    def get(self, subscription_id: str) -> Optional[Subscription]:
        return self._by_id.get(subscription_id)

    def for_subscriber(self, subscriber: str) -> List[Subscription]:
        return [
            self._by_id[sub_id]
            for sub_id in self._by_subscriber.get(subscriber, [])
            if sub_id in self._by_id
        ]

    def all(self) -> List[Subscription]:
        return list(self._by_id.values())

    def matching(self, event: Event) -> List[Subscription]:
        return [sub for sub in self._by_id.values() if sub.matches(event)]

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, subscription_id: str) -> bool:
        return subscription_id in self._by_id


class _TypeBucket:
    """Per-event-type candidate buckets of a :class:`CoveringIndex`."""

    __slots__ = ("by_signature", "by_eq")

    def __init__(self) -> None:
        # attribute signature -> fingerprint -> ids (see CoveringIndex)
        self.by_signature: Dict[Tuple[str, ...], Dict[Tuple, Set[str]]] = {}
        # (attribute, value) -> ids holding an EQ predicate pinning it
        self.by_eq: Dict[Tuple[str, object], Set[str]] = {}


class CoveringIndex:
    """Find covering/covered candidates by (event type, attribute) lookup.

    The routing control plane needs two covering queries per table entry:
    *is some indexed subscription more general than this one* (pruning)
    and *which indexed subscriptions does this one make redundant*
    (repair).  Both used to be answered by pairwise ``covers()`` sweeps
    over every indexed subscription; this index narrows the candidate set
    structurally before a single ``covers()`` call runs:

    * A cover's predicate attributes are necessarily a **subset** of the
      covered subscription's (a predicate only covers predicates on its
      own attribute), so candidates bucket per event type by their sorted
      attribute *signature* and a cover query enumerates only the
      signatures that are subsets of the target's (a covered-by query
      without an EQ to look up walks the supersets).
    * An EQ predicate covers nothing but an EQ on the same value, so
      within a signature bucket candidates sub-key by a *fingerprint*
      marking each attribute ``("eq", value)`` or ``("*",)`` — candidates
      pinned to a different value are never touched.
    * A numeric range covers only ranges inside it, so each entry carries
      the ``(lo, hi)`` of one unpinned attribute (its key's
      ``range_attribute``; see :func:`_numeric_bounds`) and a candidate
      whose bounds cannot contain — or fit inside — the target's is
      skipped on two compares.  The bounds are a necessary condition
      only: ``covers()`` confirms every survivor, and entries or targets
      without numeric bounds on that attribute are not filtered at all.

    Each entry carries an integer ``priority`` (the routing fabric uses
    its subscription issue sequence) so queries can be restricted to
    candidates issued before/after a given point.  Everything an entry is
    filed and filtered by, and the bucket keys a cover query must probe,
    is in its subscription's :class:`CoveringKey`, computed once per
    interned shape.  Signatures too wide to enumerate fall back to
    scanning the type's signature buckets with a subset check.
    """

    def __init__(self) -> None:
        # id -> (subscription, priority, its covering key)
        self._entries: Dict[str, Tuple[Subscription, int, CoveringKey]] = {}
        self._types: Dict[str, _TypeBucket] = {}
        # Conservative priority bounds over the live entries (stale after
        # discards, which only makes the early-outs less effective, never
        # wrong).  Fresh subscribes always carry the highest issue number,
        # so ``covered_by(after=newest)`` answers [] in O(1).
        self._min_priority: Optional[int] = None
        self._max_priority: Optional[int] = None

    # -- maintenance --------------------------------------------------------

    def add(self, subscription: Subscription, priority: int = 0) -> None:
        subscription_id = subscription.subscription_id
        if subscription_id in self._entries:
            self.discard(subscription_id)
        key = subscription.covering_key()
        bucket = self._types.setdefault(subscription.event_type, _TypeBucket())
        bucket.by_signature.setdefault(key.signature, {}).setdefault(
            key.fingerprint, set()
        ).add(subscription_id)
        for attr, values in key.eq_values.items():
            for value in values:
                bucket.by_eq.setdefault((attr, value), set()).add(subscription_id)
        self._entries[subscription_id] = (subscription, priority, key)
        if self._min_priority is None or priority < self._min_priority:
            self._min_priority = priority
        if self._max_priority is None or priority > self._max_priority:
            self._max_priority = priority

    def discard(self, subscription_id: str) -> bool:
        entry = self._entries.pop(subscription_id, None)
        if entry is None:
            return False
        subscription, _priority, key = entry
        bucket = self._types[subscription.event_type]
        fmap = bucket.by_signature[key.signature]
        ids = fmap[key.fingerprint]
        ids.discard(subscription_id)
        if not ids:
            del fmap[key.fingerprint]
            if not fmap:
                del bucket.by_signature[key.signature]
        for attr, values in key.eq_values.items():
            for value in values:
                ids = bucket.by_eq[(attr, value)]
                ids.discard(subscription_id)
                if not ids:
                    del bucket.by_eq[(attr, value)]
        if not bucket.by_signature:
            del self._types[subscription.event_type]
        if not self._entries:
            self._min_priority = None
            self._max_priority = None
        return True

    def __contains__(self, subscription_id: str) -> bool:
        return subscription_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def ids(self) -> List[str]:
        return list(self._entries)

    def subscriptions(self) -> List[Subscription]:
        return [entry[0] for entry in self._entries.values()]

    # -- queries ------------------------------------------------------------

    def covers_of(
        self,
        subscription: Subscription,
        before: Optional[int] = None,
        exclude: Optional[str] = None,
    ) -> Iterator[Subscription]:
        """Indexed subscriptions covering ``subscription``.

        With ``before`` only entries whose priority is strictly lower are
        yielded; ``exclude`` skips one id (typically the target itself).
        """
        if before is not None and (
            self._min_priority is None or self._min_priority >= before
        ):
            return
        bucket = self._types.get(subscription.event_type)
        if bucket is None:
            return
        entries = self._entries
        candidate_sets: List[Set[str]] = []
        target = subscription.covering_key()
        if target.probes is not None:
            by_signature = bucket.by_signature
            for sig, fingerprint in target.probes:
                fmap = by_signature.get(sig)
                if fmap:
                    ids = fmap.get(fingerprint)
                    if ids:
                        candidate_sets.append(ids)
        else:
            attrs = set(target.signature)
            for sig, fmap in bucket.by_signature.items():
                if attrs.issuperset(sig):
                    candidate_sets.extend(fmap.values())
        bounds = target.bounds
        for ids in candidate_sets:
            for subscription_id in list(ids):
                if subscription_id == exclude:
                    continue
                candidate, priority, key = entries[subscription_id]
                if before is not None and priority >= before:
                    continue
                held = bounds.get(key.range_attribute)
                if held is not None and (key.lo > held[0] or key.hi < held[1]):
                    continue
                if candidate.covers(subscription):
                    yield candidate

    def first_cover(
        self,
        subscription: Subscription,
        before: Optional[int] = None,
        exclude: Optional[str] = None,
    ) -> Optional[Subscription]:
        """Any indexed subscription covering ``subscription`` (or None).

        The pruning hot path of the routing control plane — inlined
        rather than delegating to :meth:`covers_of` so a miss costs a few
        dict probes over the cached bucket keys.
        """
        if before is not None and (
            self._min_priority is None or self._min_priority >= before
        ):
            return None
        bucket = self._types.get(subscription.event_type)
        if bucket is None:
            return None
        target = subscription.covering_key()
        if target.probes is None:
            for candidate in self.covers_of(
                subscription, before=before, exclude=exclude
            ):
                return candidate
            return None
        entries = self._entries
        by_signature = bucket.by_signature
        bounds = target.bounds
        for sig, fingerprint in target.probes:
            fmap = by_signature.get(sig)
            if not fmap:
                continue
            ids = fmap.get(fingerprint)
            if not ids:
                continue
            for subscription_id in ids:
                if subscription_id == exclude:
                    continue
                candidate, priority, key = entries[subscription_id]
                if before is not None and priority >= before:
                    continue
                held = bounds.get(key.range_attribute)
                if held is not None and (key.lo > held[0] or key.hi < held[1]):
                    continue
                if candidate.covers(subscription):
                    return candidate
        return None

    def covered_by(
        self,
        subscription: Subscription,
        after: Optional[int] = None,
        exclude: Optional[str] = None,
    ) -> List[Subscription]:
        """Indexed subscriptions that ``subscription`` covers.

        A covered candidate constrains a superset of the target's
        attributes and, where the target pins an attribute with EQ, is
        pinned to the same value — the candidate pool is the smallest
        such EQ bucket, or without one the signature buckets that are
        supersets of the target's; the bounds filter and then ``covers()``
        confirm.  With ``after`` only entries with strictly higher
        priority return.
        """
        if after is not None and (
            self._max_priority is None or self._max_priority <= after
        ):
            return []
        bucket = self._types.get(subscription.event_type)
        if bucket is None:
            return []
        target = subscription.covering_key()
        pool: Iterable[str]
        if target.eq_values:
            pool = min(
                (
                    bucket.by_eq.get((attr, value), ())
                    for attr, values in target.eq_values.items()
                    for value in values
                ),
                key=len,
            )
        else:
            attrs = set(target.signature)
            pool = (
                subscription_id
                for sig, fmap in bucket.by_signature.items()
                if attrs.issubset(sig)
                for ids in fmap.values()
                for subscription_id in ids
            )
        entries = self._entries
        bounds = target.bounds
        result: List[Subscription] = []
        for subscription_id in pool:
            if subscription_id == exclude:
                continue
            candidate, priority, key = entries[subscription_id]
            if after is not None and priority <= after:
                continue
            held = bounds.get(key.range_attribute)
            if held is not None and (held[0] > key.lo or held[1] < key.hi):
                continue
            if subscription.covers(candidate):
                result.append(candidate)
        return result


def minimal_cover(subscriptions: Sequence[Subscription]) -> List[Subscription]:
    """Remove subscriptions covered by another subscription in the set.

    Used by brokers when propagating subscription state upstream: only the
    most general subscriptions need to travel toward publishers.  A
    subscription is dropped when another is strictly more general, or
    equivalent with a smaller id (the representative); candidate covers
    come from a :class:`CoveringIndex` lookup instead of the previous
    all-pairs ``covers()`` sweep.
    """
    index = CoveringIndex()
    for subscription in subscriptions:
        if subscription.subscription_id not in index:
            index.add(subscription)
    kept: Dict[str, bool] = {}
    result: List[Subscription] = []
    for candidate in subscriptions:
        candidate_id = candidate.subscription_id
        decision = kept.get(candidate_id)
        if decision is None:
            decision = True
            for other in index.covers_of(candidate, exclude=candidate_id):
                if (
                    not candidate.covers(other)
                    or other.subscription_id < candidate_id
                ):
                    decision = False
                    break
            kept[candidate_id] = decision
        if decision:
            result.append(candidate)
    return result
