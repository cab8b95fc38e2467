"""Matching engine: which subscriptions match a published event.

A subscription is a conjunction of predicates, and the engine keeps two
populations, chosen by the subscription itself:

* **Anchored** — a conjunction with at least one ``EQ`` predicate (on a
  non-NaN value) is filed under *exactly one* of them, its **access
  predicate** (the one whose bucket is smallest when it is added), in a
  single hash index ``(event type, attribute, value) -> slots``.  The rest
  of the conjunction is its **residual**, compiled once per shape to
  ``(attribute, test, expected)`` triples.  An event's own attribute
  values select the candidate buckets, and only those candidates have
  their residual evaluated — the access-predicate / clustering scheme of
  the Gryphon and Le Subscribe line.  Cost per event is proportional to
  the candidates selected, never to the width of a range bucket, and
  nothing is cached, so a mutation invalidates nothing.
* **Counting** — a conjunction with no such predicate (ranges, ``EXISTS``,
  ``NE``, ``PREFIX``, ``CONTAINS`` only) goes to the classic counting
  algorithm: each of its predicates is indexed, every event attribute
  probes the indexes and increments a per-subscription hit counter, and a
  subscription whose counter reaches its predicate count matches.
  EXISTS predicates are hash-indexed; numeric LT/LE/GT/GE predicates live
  in per-(event type, attribute, operator) sorted threshold arrays
  answered with a ``bisect`` prefix/suffix walk (O(log n + hits) per
  attribute); the leftover shapes (NE/PREFIX/CONTAINS, ranges over
  non-numeric values, EQ on NaN) fall back to a per-attribute candidate
  scan with ``Predicate.matches``.  :class:`BatchMatchCache` and
  :class:`RouteProbeCache` amortize this population's probes across
  events; an engine that holds none of it never consults them.

Wildcards (no predicates) match every event of their type.  Every entry
point returns the union of the three.

Hot-path notes (see PERFORMANCE.md): subscriptions live in dense integer
slots, and the per-slot bookkeeping is *columnar* — parallel columns for
the needs-counters, per-event hit counters, interned subscriber ids
(``array('I')``) and the access entry shared by every subscription of
one shape — so a million resident subscriptions cost small integers and
pointers into the pool instead of private Python object graphs (the
hit/needs columns stay plain lists because ``array`` element access boxes
a PyLong per probe and costs ~1.5x on the counting path).  ``remove()``
deletes one bucket entry for an anchored subscription and walks just the
subscription's own (pooled) distinct predicates for a counting one.
:class:`NaiveMatchingEngine` retains the brute-force linear scan as the
oracle the property tests compare against.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.pubsub.events import Event
from repro.pubsub.subscriptions import (
    PREDICATE_POOL,
    Operator,
    Predicate,
    Subscription,
)

# Range-indexable operators, keyed by how an event value v selects the
# matching prefix/suffix of the sorted threshold array.
_RANGE_OPS = (Operator.LT, Operator.LE, Operator.GT, Operator.GE)

# (operator, bisector, take_suffix): the single table both the per-event
# probe and the batched per-item probe walk, so the prefix/suffix
# selection rules cannot diverge between match() and match_batch().
# GE: thresholds <= v; GT: thresholds < v; LE: thresholds >= v;
# LT: thresholds > v.
_RANGE_PROBES = (
    (Operator.GE, bisect_right, False),
    (Operator.GT, bisect_left, False),
    (Operator.LE, bisect_left, True),
    (Operator.LT, bisect_right, True),
)


#: "The event has no such attribute" (``None`` is a legitimate value).
_MISSING = object()

#: The one sort key of every match list.
_by_id = attrgetter("subscription_id")


def _is_number(value: object) -> bool:
    # bool is an int subtype and compares numerically, matching the
    # semantics of Predicate.matches, so it is deliberately included.
    # NaN is excluded (value != value): it would corrupt the sorted
    # threshold arrays and the bisect walk; the linear fallback gives it
    # the seed semantics (all comparisons false) instead.
    return isinstance(value, (int, float)) and value == value


def distinct_subscribers(matched: List[Subscription]) -> List[str]:
    """Distinct subscriber names of a match list, first-match order.

    Shared by every engine's ``match_subscribers`` so dedup/ordering
    semantics cannot drift between the single and sharded engines.
    """
    seen: Dict[str, None] = {}
    for subscription in matched:
        seen.setdefault(subscription.subscriber, None)
    return list(seen)


class _SingleAttributeView:
    """Duck-typed single-attribute event for ``Predicate.matches``.

    The fallback predicates indexed under ``(event_type, attribute)`` only
    ever inspect their own attribute, so batch probing can evaluate them
    against one (name, value) pair without building a full :class:`Event`.
    """

    __slots__ = ("_name", "_value")

    def __init__(self, name: str, value: object) -> None:
        self._name = name
        self._value = value

    def has(self, name: str) -> bool:
        return name == self._name

    def get(self, name: str, default: object = None) -> object:
        return self._value if name == self._name else default


class MatchingEngine:
    """Access-predicate matcher, counting for conjunctions without an EQ."""

    def __init__(self) -> None:
        # Columnar dense-slot storage: parallel columns keyed by slot.
        # Subscription objects are needed for match results; everything
        # else is small integers or a pointer into the pool.  The
        # needs/counts columns (counting population only) are
        # plain lists, NOT array('I'): the probe loop reads and writes
        # them per hit, and array element access boxes/unboxes a PyLong
        # each time (~1.5x slower match), while the pointer overhead of a
        # list of shared small ints is ~4 MB per million slots.
        self._subs: List[Optional[Subscription]] = []
        self._needs: List[int] = []
        # Preallocated per-event hit counters, always zero between calls.
        self._counts: List[int] = []
        # Interned subscriber id per slot (PREDICATE_POOL.subscriber());
        # array('I') is fine here — it is only read per match *result*.
        self._subscriber_ids = array("I")
        # The slot's access entry ``(attribute, value, residual)`` —
        # shared per shape through the pool, so the column costs one
        # pointer per slot; None for counting slots and wildcards.
        self._access: List[Optional[tuple]] = []
        self._free_slots: List[int] = []
        self._slot_of: Dict[str, int] = {}
        # Anchor index: (event_type, attribute, value) -> slots filed
        # under that EQ predicate (each anchored slot is in one bucket).
        self._anchor_index: Dict[Tuple[str, str, object], Set[int]] = {}
        # Subscriptions in the four counting indexes below.
        self._counting = 0
        # EXISTS index: (event_type, attribute) -> slots.
        self._exists_index: Dict[Tuple[str, str], Set[int]] = {}
        # Numeric range indexes: (event_type, attribute, operator) ->
        # [sorted threshold list, parallel slot list].
        self._range_index: Dict[Tuple[str, str, Operator], List[list]] = {}
        # Everything else: (event_type, attribute) -> {(slot, predicate)}.
        self._other_index: Dict[Tuple[str, str], Dict[Tuple[int, Predicate], None]] = {}
        # Wildcards (no predicates) match every event of their type; the
        # id-sorted list per event type is cached between mutations.
        self._wildcards: Dict[str, Dict[str, Subscription]] = {}
        self._wildcard_cache: Dict[str, List[Subscription]] = {}
        # Bumped on every index mutation; lets external caches (see
        # BatchMatchCache) detect staleness without subscribing to events.
        self._mutation_version = 0

    # -- maintenance -------------------------------------------------------

    def add(self, subscription: Subscription) -> None:
        """Index a subscription.

        Re-adding the identical subscription is a no-op; re-adding the same
        subscription id with a *changed* definition (predicates, event type
        or subscriber) replaces the indexed entry, so the engine never
        silently keeps matching against a stale definition.
        """
        slot = self._slot_of.get(subscription.subscription_id)
        if slot is not None:
            old = self._subs[slot]
            if old is subscription or old == subscription:
                return
            self.remove(subscription.subscription_id)
        self._mutation_version += 1

        # Duplicate predicates are conjunctively redundant; the pooled
        # shape already holds the distinct set (deduped by interned id,
        # which coincides with dataclass equality), so the hit-counter
        # target agrees with Subscription.matches().  Uninternable
        # subscriptions dedupe by equality as before.
        shape = subscription.interned_shape()
        event_type = subscription.event_type
        entry = None
        if shape is None:
            predicates = tuple(dict.fromkeys(subscription.predicates))
        else:
            predicates = shape.predicates
            entries = PREDICATE_POOL.access_entries_for(shape)
            if entries:
                # File the subscription under one EQ predicate — the one
                # whose bucket is smallest right now when it has several —
                # and leave the rest of the conjunction to its residual.
                entry = entries[0]
                if len(entries) > 1:
                    anchor_index = self._anchor_index
                    entry = min(
                        entries,
                        key=lambda e: len(anchor_index.get((event_type, e[0], e[1]), ())),
                    )
        slot = self._allocate_slot(subscription, len(predicates), entry)
        self._slot_of[subscription.subscription_id] = slot

        if entry is not None:
            key = (event_type, entry[0], entry[1])
            bucket = self._anchor_index.get(key)
            if bucket is None:
                self._anchor_index[key] = {slot}
            else:
                bucket.add(slot)
            return
        if not predicates:
            self._wildcards.setdefault(event_type, {})[
                subscription.subscription_id
            ] = subscription
            self._wildcard_cache.pop(event_type, None)
            return
        self._counting += 1
        for predicate in predicates:
            operator = predicate.operator
            # The only EQ left here is on NaN, which equals nothing (not
            # even itself): it takes the Predicate.matches fallback.
            if operator is Operator.EXISTS:
                key2 = (event_type, predicate.attribute)
                bucket2 = self._exists_index.get(key2)
                if bucket2 is None:
                    self._exists_index[key2] = {slot}
                else:
                    bucket2.add(slot)
            elif operator in _RANGE_OPS and _is_number(predicate.value):
                key3 = (event_type, predicate.attribute, operator)
                lists = self._range_index.get(key3)
                if lists is None:
                    lists = self._range_index[key3] = [[], []]
                thresholds, slots = lists
                # Keep equal-threshold runs sorted by slot so remove()
                # can bisect for the exact entry instead of scanning the
                # run (runs grow with engine size; at 1M subscriptions a
                # linear scan made removal milliseconds).
                value = predicate.value
                low = bisect_left(thresholds, value)
                high = bisect_right(thresholds, value, low)
                position = bisect_left(slots, slot, low, high)
                thresholds.insert(position, value)
                slots.insert(position, slot)
            else:
                key2 = (event_type, predicate.attribute)
                self._other_index.setdefault(key2, {})[(slot, predicate)] = None

    def _allocate_slot(
        self,
        subscription: Subscription,
        needs: int,
        access: Optional[tuple],
    ) -> int:
        subscriber_id = PREDICATE_POOL.intern_subscriber(subscription.subscriber)
        if self._free_slots:
            slot = self._free_slots.pop()
            self._subs[slot] = subscription
            self._needs[slot] = needs
            self._subscriber_ids[slot] = subscriber_id
            self._access[slot] = access
            return slot
        self._subs.append(subscription)
        self._needs.append(needs)
        self._counts.append(0)
        self._subscriber_ids.append(subscriber_id)
        self._access.append(access)
        return len(self._subs) - 1

    def add_many(self, subscriptions: Iterable[Subscription]) -> None:
        """Batch-index subscriptions; equivalent to ``add`` in a loop (the
        last definition of a duplicated id wins), with per-call dispatch
        amortized for the million-subscription build path."""
        add = self.add
        for subscription in subscriptions:
            add(subscription)

    def remove(self, subscription_id: str) -> bool:
        """Remove a subscription from the index; returns False if unknown.

        One bucket entry for an anchored subscription; otherwise cost is
        proportional to the subscription's own predicate count (plus an
        O(log n) bisect locate inside each sorted range array), not to
        the size of any per-attribute candidate list.
        """
        slot = self._slot_of.pop(subscription_id, None)
        if slot is None:
            return False
        self._mutation_version += 1
        subscription = self._subs[slot]
        assert subscription is not None
        event_type = subscription.event_type
        # What the counting indexes hold of it: nothing when it is anchored.
        predicates: Tuple[Predicate, ...] = ()
        entry = self._access[slot]
        if entry is not None:
            key = (event_type, entry[0], entry[1])
            bucket = self._anchor_index[key]
            bucket.discard(slot)
            if not bucket:
                del self._anchor_index[key]
        else:
            shape = subscription.interned_shape()
            if shape is None:
                predicates = tuple(dict.fromkeys(subscription.predicates))
            else:
                predicates = shape.predicates
            if predicates:
                self._counting -= 1
            else:
                wildcards = self._wildcards.get(event_type)
                if wildcards is not None:
                    wildcards.pop(subscription_id, None)
                    if not wildcards:
                        del self._wildcards[event_type]
                self._wildcard_cache.pop(event_type, None)
        for predicate in predicates:
            operator = predicate.operator
            if operator is Operator.EXISTS:
                key2 = (event_type, predicate.attribute)
                bucket2 = self._exists_index.get(key2)
                if bucket2 is not None:
                    bucket2.discard(slot)
                    if not bucket2:
                        del self._exists_index[key2]
            elif operator in _RANGE_OPS and _is_number(predicate.value):
                key3 = (event_type, predicate.attribute, operator)
                lists = self._range_index.get(key3)
                if lists is not None:
                    thresholds, slots = lists
                    # Equal-threshold runs are slot-sorted (see add), so
                    # the exact entry is found by bisect, not a run scan.
                    value = predicate.value
                    low = bisect_left(thresholds, value)
                    high = bisect_right(thresholds, value, low)
                    position = bisect_left(slots, slot, low, high)
                    if position < high and slots[position] == slot:
                        del thresholds[position]
                        del slots[position]
                    if not thresholds:
                        del self._range_index[key3]
            else:
                key2 = (event_type, predicate.attribute)
                bucket3 = self._other_index.get(key2)
                if bucket3 is not None:
                    bucket3.pop((slot, predicate), None)
                    if not bucket3:
                        del self._other_index[key2]
        self._subs[slot] = None
        self._needs[slot] = 0
        self._subscriber_ids[slot] = 0
        self._access[slot] = None
        self._free_slots.append(slot)
        return True

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, subscription_id: str) -> bool:
        return subscription_id in self._slot_of

    @property
    def mutation_version(self) -> int:
        """Monotonic counter bumped on every index mutation.

        External probe/result caches key their validity on this value so
        a control-plane mutation between batches invalidates them without
        the engine knowing who holds a cache.
        """
        return self._mutation_version

    def subscriptions(self) -> List[Subscription]:
        return [self._subs[slot] for slot in self._slot_of.values()]

    def get(self, subscription_id: str) -> Optional[Subscription]:
        slot = self._slot_of.get(subscription_id)
        return self._subs[slot] if slot is not None else None

    def any_covering(self, subscription: Subscription) -> bool:
        """True if some indexed subscription covers ``subscription``.

        Early-exit helper for the router's subscription-pruning check.
        """
        subs = self._subs
        for slot in self._slot_of.values():
            indexed = subs[slot]
            if indexed is not None and indexed.covers(subscription):
                return True
        return False

    # -- matching ----------------------------------------------------------

    def _anchored_hits(self, event: Event, first_only: bool = False) -> List[Subscription]:
        """Anchored subscriptions matching ``event``, in no particular order.

        Each attribute value of the event selects at most one bucket of
        the anchor index; a candidate in it matches when every predicate
        of its residual holds, with the semantics of
        :meth:`Predicate.matches` (attribute present, and a comparison
        that raises ``TypeError`` is false).  ``first_only`` returns at
        the first hit.  An unhashable attribute value raises ``TypeError``.
        """
        hits: List[Subscription] = []
        buckets = self._anchor_index
        access = self._access
        subs = self._subs
        event_type = event.event_type
        attributes = event.attributes
        get = attributes.get
        for name, value in attributes.items():
            bucket = buckets.get((event_type, name, value))
            if not bucket:
                continue
            for slot in bucket:
                residual = access[slot][2]
                try:
                    for attribute, test, expected in residual:
                        actual = get(attribute, _MISSING)
                        if actual is _MISSING or not test(actual, expected):
                            break
                    else:
                        hits.append(subs[slot])
                        if first_only:
                            return hits
                except TypeError:
                    pass
        return hits

    def _count_hits(self, event: Event) -> List[int]:
        """Increment per-slot hit counters for every probe the event fires.

        Returns the list of touched slots; the caller (:meth:`_counted`)
        MUST reset ``self._counts[slot]`` to zero for each before returning.
        """
        counts = self._counts
        touched: List[int] = []
        append = touched.append
        event_type = event.event_type
        exists_index = self._exists_index
        range_index = self._range_index
        other_index = self._other_index
        try:
            self._probe(event, counts, append, event_type,
                        exists_index, range_index, other_index)
        except BaseException:
            # The counters are shared across calls; a probe that raises
            # must not leave them dirty, or the touched subscriptions
            # could never match again.
            for slot in touched:
                counts[slot] = 0
            raise
        return touched

    def _probe(self, event, counts, append, event_type,
               exists_index, range_index, other_index) -> None:
        for name, value in event.attributes.items():
            exists_bucket = exists_index.get((event_type, name))
            if exists_bucket:
                for slot in exists_bucket:
                    count = counts[slot] + 1
                    counts[slot] = count
                    if count == 1:
                        append(slot)
            if range_index and _is_number(value):
                for operator, bisector, take_suffix in _RANGE_PROBES:
                    lists = range_index.get((event_type, name, operator))
                    if lists is not None:
                        cut = bisector(lists[0], value)
                        for slot in (
                            lists[1][cut:] if take_suffix else lists[1][:cut]
                        ):
                            count = counts[slot] + 1
                            counts[slot] = count
                            if count == 1:
                                append(slot)
            other_bucket = other_index.get((event_type, name))
            if other_bucket:
                for slot, predicate in other_bucket:
                    if predicate.matches(event):
                        count = counts[slot] + 1
                        counts[slot] = count
                        if count == 1:
                            append(slot)

    def _counted(self, event: Event) -> List[Subscription]:
        """The counting population's matches for ``event``, unordered."""
        counts = self._counts
        needs = self._needs
        subs = self._subs
        matched: List[Subscription] = []
        for slot in self._count_hits(event):
            if counts[slot] >= needs[slot]:
                matched.append(subs[slot])
            counts[slot] = 0
        return matched

    def _wildcard_list(self, event_type: str) -> List[Subscription]:
        cached = self._wildcard_cache.get(event_type)
        if cached is None:
            wildcards = self._wildcards.get(event_type)
            if not wildcards:
                return []
            cached = sorted(wildcards.values(), key=_by_id)
            self._wildcard_cache[event_type] = cached
        return cached

    def match(self, event: Event) -> List[Subscription]:
        """Return all subscriptions matching ``event`` (sorted by id)."""
        matched = self._anchored_hits(event)
        if self._counting:
            matched.extend(self._counted(event))
        wildcards = self._wildcard_list(event.event_type)
        if wildcards:
            matched.extend(wildcards)
        if len(matched) > 1:
            matched.sort(key=_by_id)
        return matched

    def match_count(self, event: Event) -> int:
        """Number of matching subscriptions, without sorting the list."""
        matches = len(self._anchored_hits(event))
        if self._counting:
            matches += len(self._counted(event))
        wildcards = self._wildcards.get(event.event_type)
        if wildcards:
            matches += len(wildcards)
        return matches

    def matches_any(self, event: Event) -> bool:
        """True if at least one subscription matches (early exit).

        Used on the broker forwarding path, where only the boolean matters.
        """
        if self._wildcards.get(event.event_type) or self._anchored_hits(event, True):
            return True
        return bool(self._counting and self._counted(event))

    def matches_any_cached(self, event: Event, cache: "RouteProbeCache") -> bool:
        """:meth:`matches_any` with cross-event probe tables.

        Same boolean (and the same ``TypeError`` on an unhashable
        attribute value) as :meth:`matches_any`: wildcards and anchored
        subscriptions answer first, without touching ``cache``, and an
        engine with nothing in its counting indexes never consults it.
        For the counting population the per-``(event_type,
        attribute, value)`` probe contributions are cached in ``cache``
        across calls (dropped whenever :attr:`mutation_version` moves), as
        a slot -> contribution-count dict plus a "some subscription is
        fully satisfied by this item alone" flag.  A stream of routing
        probes then pays dict lookups instead of the per-event index walk
        — in particular the sorted-range suffix copy and counter sweep
        that a wide range bucket (e.g. a popular ``priority >= n``
        predicate) costs :meth:`_count_hits` on every call.

        Multi-predicate subscriptions are resolved by joining the cached
        items: a subscription left incomplete by every single item needs
        contributions from at least two of them, so candidate slots can be
        drawn from every contributing item *except* the largest and probed
        into the rest — O(small buckets) instead of O(all touched slots).
        """
        if self._wildcards.get(event.event_type) or self._anchored_hits(event, True):
            return True
        if not self._counting:
            return False
        items = cache.table_for(self)
        needs = self._needs
        event_type = event.event_type
        contributing: List[Dict[int, int]] = []
        for name, value in event.attributes.items():
            # Hashable: the anchored probe above hashed every value.
            key = (event_type, name, value)
            entry = items.get(key)
            if entry is None:
                slot_counts: Dict[int, int] = {}
                for slot in self._probe_item(event_type, name, value):
                    slot_counts[slot] = slot_counts.get(slot, 0) + 1
                complete = any(
                    count >= needs[slot] for slot, count in slot_counts.items()
                )
                entry = items[key] = (slot_counts, complete)
            slot_counts, complete = entry
            if complete:
                return True
            if slot_counts:
                contributing.append(slot_counts)
        if len(contributing) < 2:
            # Zero or one contributing item, and no item completed a
            # subscription on its own: nothing can reach its needs count.
            return False
        # No subscription is satisfied by any single item, so a match must
        # draw contributions from >= 2 items — i.e. every candidate slot
        # appears in at least one item that is not the (single) largest.
        largest = max(contributing, key=len)
        for slot_counts in contributing:
            if slot_counts is largest:
                continue
            for slot, count in slot_counts.items():
                total = count
                need = needs[slot]
                for other in contributing:
                    if other is slot_counts:
                        continue
                    total += other.get(slot, 0)
                    if total >= need:
                        return True
        return False

    def match_subscribers(self, event: Event) -> List[str]:
        """Distinct subscriber names whose subscriptions match ``event``.

        Dedupes on the interned subscriber-id column (integer set probes
        instead of string hashing); same names/order as
        :func:`distinct_subscribers` over :meth:`match`.
        """
        matched = self.match(event)
        slot_of = self._slot_of
        subscriber_ids = self._subscriber_ids
        pool = PREDICATE_POOL
        seen: Set[int] = set()
        names: List[str] = []
        for subscription in matched:
            subscriber_id = subscriber_ids[slot_of[subscription.subscription_id]]
            if subscriber_id not in seen:
                seen.add(subscriber_id)
                names.append(pool.subscriber(subscriber_id))
        return names

    def column_stats(self) -> Dict[str, int]:
        """Sizes of the columnar storage (for the scale benchmarks)."""
        anchor_buckets = self._anchor_index.values()
        return {
            "slots": len(self._subs),
            "free_slots": len(self._free_slots),
            # Lists of shared small ints: one pointer per slot.
            "needs_bytes": 8 * len(self._needs),
            "counts_bytes": 8 * len(self._counts),
            "subscriber_id_bytes": self._subscriber_ids.itemsize
            * len(self._subscriber_ids),
            "distinct_shapes": len(
                {sub.signature_id() for sub in self._subs if sub is not None} - {None}
            ),
            # Which population the subscriptions joined.  A skewed access
            # predicate (everyone on one topic) shows as one anchor bucket
            # holding most of ``anchored``: every event carrying that
            # value checks the residual of the whole bucket.
            "anchored": sum(map(len, anchor_buckets)),
            "counting": self._counting,
            "anchor_buckets": len(anchor_buckets),
            "largest_anchor_bucket": max(map(len, anchor_buckets), default=0),
        }

    # -- batched matching --------------------------------------------------

    def _probe_item(self, event_type: str, name: str, value: object) -> List[int]:
        """Slots whose hit counter one (name, value) attribute increments.

        The returned list carries one entry per count contribution (a slot
        with both a GE and an EXISTS predicate on the attribute appears
        twice), so summing item contributions reproduces exactly what
        :meth:`_probe` does for a full event.  Probe results are a pure
        function of engine state and ``(event_type, name, value)``, which
        is what lets :meth:`match_batch` cache them across a batch.
        """
        slots_out: List[int] = []
        exists_bucket = self._exists_index.get((event_type, name))
        if exists_bucket:
            slots_out.extend(exists_bucket)
        range_index = self._range_index
        if range_index and _is_number(value):
            for operator, bisector, take_suffix in _RANGE_PROBES:
                lists = range_index.get((event_type, name, operator))
                if lists is not None:
                    cut = bisector(lists[0], value)
                    slots_out.extend(
                        lists[1][cut:] if take_suffix else lists[1][:cut]
                    )
        other_bucket = self._other_index.get((event_type, name))
        if other_bucket:
            view = _SingleAttributeView(name, value)
            for slot, predicate in other_bucket:
                if predicate.matches(view):
                    slots_out.append(slot)
        return slots_out

    def match_batch(self, events: Sequence[Event]) -> List[List[Subscription]]:
        """Match a batch of events; returns one sorted match list per event.

        Semantically identical to ``[self.match(e) for e in events]``.
        Anchored subscriptions are matched per event (their cost is
        already proportional to the candidates the event selects); the
        counting population amortizes probe work across the batch:

        * per-item probe results (the slot contributions of one
          ``(event_type, attribute, value)`` triple) are computed once per
          distinct triple instead of once per event, which also skips the
          per-event slice copies of the sorted range indexes;
        * its matches are cached per distinct *contributing* probe
          signature, so events differing only in attributes no counting
          subscription constrains resolve to a cached result without
          touching counters.

        The engine must not be mutated while a batch is in flight (the
        per-call caches assume stable indexes).
        """
        return self._match_batch(events, {}, {})

    def match_batch_cached(
        self, events: Sequence[Event], cache: "BatchMatchCache"
    ) -> List[List[Subscription]]:
        """:meth:`match_batch` with probe/result tables that outlive the call.

        ``cache`` keeps the per-triple probe slots and per-signature match
        results of the counting population across batches, and drops them
        whenever :attr:`mutation_version` moves, so steady-state traffic
        with a stable subscription population amortizes probe work across
        the whole stream instead of one batch; an engine with nothing in
        its counting indexes never consults it.  Semantics are identical
        to :meth:`match_batch` (and therefore to ``match`` in a loop).
        """
        if not self._counting:
            return self._match_batch(events, {}, {})
        return self._match_batch(events, *cache.tables_for(self))

    def _match_batch(
        self,
        events: Sequence[Event],
        item_slots: Dict[Tuple[str, str, object], Tuple[int, ...]],
        result_cache: Dict[Tuple[str, Tuple], Tuple[Subscription, ...]],
    ) -> List[List[Subscription]]:
        counting = self._counting
        results: List[List[Subscription]] = []
        for event in events:
            matched = self._anchored_hits(event)
            if counting:
                matched.extend(self._counted_cached(event, item_slots, result_cache))
            wildcards = self._wildcard_list(event.event_type)
            if wildcards:
                matched.extend(wildcards)
            if len(matched) > 1:
                matched.sort(key=_by_id)
            results.append(matched)
        return results

    def _counted_cached(
        self,
        event: Event,
        item_slots: Dict[Tuple[str, str, object], Tuple[int, ...]],
        result_cache: Dict[Tuple[str, Tuple], Tuple[Subscription, ...]],
    ) -> Tuple[Subscription, ...]:
        """The counting population's matches for ``event``, through (and
        filling) the two tables of :meth:`match_batch`."""
        event_type = event.event_type
        signature: List[Tuple[str, str, object]] = []
        for name, value in event.attributes.items():
            key = (event_type, name, value)
            slots = item_slots.get(key)
            if slots is None:
                slots = tuple(self._probe_item(event_type, name, value))
                item_slots[key] = slots
            if slots:
                signature.append(key)
        # Attribute names are unique within an event, so ordering by
        # (event_type, name) prefixes never compares the values.
        signature.sort()
        cache_key = (event_type, tuple(signature))
        cached = result_cache.get(cache_key)
        if cached is None:
            counts = self._counts
            needs = self._needs
            subs = self._subs
            touched: List[int] = []
            try:
                for key in signature:
                    for slot in item_slots[key]:
                        count = counts[slot] + 1
                        counts[slot] = count
                        if count == 1:
                            touched.append(slot)
            except BaseException:
                for slot in touched:
                    counts[slot] = 0
                raise
            matched: List[Subscription] = []
            for slot in touched:
                if counts[slot] >= needs[slot]:
                    matched.append(subs[slot])
                counts[slot] = 0
            cached = result_cache[cache_key] = tuple(matched)
        return cached


class BatchMatchCache:
    """Cross-batch probe/result tables for :meth:`MatchingEngine.match_batch_cached`.

    One instance per consumer (e.g. per broker process); holds the
    per-(event_type, attribute, value) probe slots and the
    per-contributing-signature match results between batches and discards
    both whenever the engine's :attr:`~MatchingEngine.mutation_version`
    has moved since the tables were built.  ``max_entries`` bounds the
    combined table size so adversarial attribute diversity cannot grow
    the cache without limit (overflow clears, it does not evict).
    """

    __slots__ = ("_engine", "_version", "_item_slots", "_result_cache",
                 "max_entries", "resets")

    def __init__(self, max_entries: int = 65536) -> None:
        # A weak reference, compared by identity: ``id()`` values are
        # reused once an engine is collected, and a new engine at the old
        # address with the same mutation count would inherit the tables.
        self._engine: Optional[weakref.ref] = None
        self._version = -1
        self._item_slots: Dict[Tuple[str, str, object], Tuple[int, ...]] = {}
        self._result_cache: Dict[Tuple[str, Tuple], Tuple[Subscription, ...]] = {}
        self.max_entries = max_entries
        self.resets = 0

    def tables_for(self, engine: "MatchingEngine") -> Tuple[dict, dict]:
        version = engine.mutation_version
        if (
            self._engine is None
            or self._engine() is not engine
            or self._version != version
            or len(self._item_slots) + len(self._result_cache) > self.max_entries
        ):
            self._engine = weakref.ref(engine)
            self._version = version
            self._item_slots = {}
            self._result_cache = {}
            self.resets += 1
        return self._item_slots, self._result_cache


class RouteProbeCache:
    """Cross-event probe tables for :meth:`MatchingEngine.matches_any_cached`.

    One instance per (broker, neighbour) routing engine; maps
    ``(event_type, attribute, value)`` to that item's cached probe
    contributions (slot -> count dict plus a single-item-completion flag)
    and discards the table whenever the engine's
    :attr:`~MatchingEngine.mutation_version` has moved since it was built,
    so control-plane mutations (subscribe, unsubscribe, repair) invalidate
    every cached forwarding probe.  ``max_entries`` bounds the table so
    adversarial attribute diversity cannot grow it without limit
    (overflow clears, it does not evict).
    """

    __slots__ = ("_engine", "_version", "_items", "max_entries", "resets")

    def __init__(self, max_entries: int = 65536) -> None:
        # Weak, compared by identity (see BatchMatchCache).
        self._engine: Optional[weakref.ref] = None
        self._version = -1
        self._items: Dict[Tuple[str, str, object], Tuple[Dict[int, int], bool]] = {}
        self.max_entries = max_entries
        self.resets = 0

    def table_for(self, engine: "MatchingEngine") -> Dict:
        version = engine.mutation_version
        if (
            self._engine is None
            or self._engine() is not engine
            or self._version != version
            or len(self._items) > self.max_entries
        ):
            self._engine = weakref.ref(engine)
            self._version = version
            self._items = {}
            self.resets += 1
        return self._items


class NaiveMatchingEngine:
    """Brute-force reference matcher (the property-test oracle).

    Evaluates ``Subscription.matches`` against every registered
    subscription; obviously correct and O(subscriptions) per event.  The
    optimized :class:`MatchingEngine` must produce identical results.
    """

    def __init__(self) -> None:
        self._subscriptions: Dict[str, Subscription] = {}

    def add(self, subscription: Subscription) -> None:
        self._subscriptions[subscription.subscription_id] = subscription

    def add_many(self, subscriptions: Iterable[Subscription]) -> None:
        for subscription in subscriptions:
            self.add(subscription)

    def remove(self, subscription_id: str) -> bool:
        return self._subscriptions.pop(subscription_id, None) is not None

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, subscription_id: str) -> bool:
        return subscription_id in self._subscriptions

    def subscriptions(self) -> List[Subscription]:
        return list(self._subscriptions.values())

    def get(self, subscription_id: str) -> Optional[Subscription]:
        return self._subscriptions.get(subscription_id)

    def any_covering(self, subscription: Subscription) -> bool:
        return any(
            indexed.covers(subscription) for indexed in self._subscriptions.values()
        )

    def match(self, event: Event) -> List[Subscription]:
        matched = [
            subscription
            for subscription in self._subscriptions.values()
            if subscription.matches(event)
        ]
        matched.sort(key=_by_id)
        return matched

    def match_count(self, event: Event) -> int:
        return len(self.match(event))

    def matches_any(self, event: Event) -> bool:
        return any(
            subscription.matches(event) for subscription in self._subscriptions.values()
        )

    def match_subscribers(self, event: Event) -> List[str]:
        seen: Dict[str, None] = {}
        for subscription in self.match(event):
            seen.setdefault(subscription.subscriber, None)
        return list(seen)

    def match_batch(self, events: Sequence[Event]) -> List[List[Subscription]]:
        return [self.match(event) for event in events]
