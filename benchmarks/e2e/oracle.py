"""Single-engine delivery oracle over plain workload specs.

The program routes events across several brokers; the oracle is the
one-table answer to "which subscriptions must this event reach" computed
from :func:`workloads.matches` alone — it shares no code with
``repro.pubsub.matching``, so a matcher bug cannot hide by appearing on
both sides.  Subscriptions are bucketed by topic (every workload
subscription pins ``topic``), which keeps the per-event cost at the size
of one topic's population.

Two checks use it:

* every timed round compares the *number* of delivered pairs per event
  with :meth:`Oracle.count` (the program side is one dict increment per
  delivery frame/callback, so the check does not distort the round);
* one extra untimed round per run compares the full
  ``(event_id, subscription_id)`` set with :meth:`Oracle.pairs`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from workloads import EventSpec, SubSpec, matches

Pair = Tuple[str, str]


class Oracle:
    def __init__(self, subscriptions: Iterable[SubSpec] = ()) -> None:
        self._by_topic: Dict[str, Dict[str, SubSpec]] = {}
        for spec in subscriptions:
            self.add(spec)

    def add(self, spec: SubSpec) -> None:
        self._by_topic.setdefault(spec.topic, {})[spec.sub_id] = spec

    def remove(self, spec: SubSpec) -> None:
        del self._by_topic[spec.topic][spec.sub_id]

    def matching_ids(self, event: EventSpec) -> List[str]:
        bucket = self._by_topic.get(event.topic)
        if not bucket:
            return []
        return [sub_id for sub_id, spec in bucket.items() if matches(spec, event)]

    def count(self, event: EventSpec) -> int:
        return len(self.matching_ids(event))

    def pairs(self, events: Iterable[EventSpec]) -> Set[Pair]:
        return {
            (event.event_id, sub_id)
            for event in events
            for sub_id in self.matching_ids(event)
        }


def compare_counts(
    expected: Dict[str, int], delivered: Dict[str, int]
) -> Tuple[int, int, List[str]]:
    """Per-event pair counts: returns ``(pairs attempted, pairs failed,
    sample of offending event ids)``.  A shortfall (missing pairs) and an
    excess (duplicated or unexpected pairs) both count, pair by pair."""
    attempted = sum(expected.values())
    failed = 0
    offenders: List[str] = []
    for event_id, want in expected.items():
        got = delivered.get(event_id, 0)
        if got != want:
            failed += abs(got - want)
            offenders.append(event_id)
    for event_id, got in delivered.items():
        if event_id not in expected:
            failed += got
            offenders.append(event_id)
    return attempted, failed, offenders[:5]


def compare_pairs(expected: Set[Pair], delivered: List[Pair]) -> Tuple[int, int, List[Pair]]:
    """Full pair sets: missing, unexpected and duplicated pairs all fail."""
    seen: Set[Pair] = set()
    duplicated: List[Pair] = []
    for pair in delivered:
        if pair in seen:
            duplicated.append(pair)
        seen.add(pair)
    missing = expected - seen
    unexpected = seen - expected
    failed = len(missing) + len(unexpected) + len(duplicated)
    sample = (sorted(missing) + sorted(unexpected) + duplicated)[:5]
    return len(expected), failed, sample
