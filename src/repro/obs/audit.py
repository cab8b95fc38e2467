"""Control-plane audit log: why does each route entry exist?

The incremental :class:`~repro.cluster.routing.RoutingFabric` mutates
routing state through several distinct doors — fresh propagation,
covering pruning, victim readmission after a coverer retracts, ingress
merging, boot-time eviction when a link appears.  After a long churn the
*presence* of an entry tells you nothing about *which* door it came
through; debugging a stale or missing route means replaying the whole
history by hand.

:class:`RouteAuditLog` records one :class:`AuditRecord` per control-plane
decision, in decision order.  Record format (also documented in
PERFORMANCE.md):

=================== ===========================================================
field               meaning
=================== ===========================================================
``index``           monotone per-log decision sequence number
``action``          one of the actions below
``subscription_id`` the subscription the decision is about
``node``            broker where the decision applies
``via``             neighbour the route entry points at (``node -> via``),
                    ``None`` for node-scoped actions
``blocker``         the *other* subscription id that caused the decision:
                    the coverer for ``covered-by`` / ``merged-ingress`` /
                    ``evicted``, ``None`` otherwise
``seq``             the fabric's propagation sequence number, when the
                    decision created a route entry
=================== ===========================================================

Actions:

``issued``
    a route entry was created by normal advertisement propagation;
``covered-by``
    a would-be entry was pruned because ``blocker`` already covers it on
    that edge;
``readmitted-victim``
    a previously pruned entry was (re)issued because its blocker went
    away (retraction or topology change);
``merged-ingress``
    a new subscription was absorbed at its home broker because
    ``blocker``, a live subscription of the same subscriber there, has
    the same signature (no propagation at all);
``evicted``
    a boot-time covering sweep removed an existing entry in favour of
    ``blocker``;
``retracted``
    the entry was removed because its subscription was unsubscribed or
    its edge vanished.

The log is append-only and indexed by subscription id; it is attached to
a fabric via the ``audit=`` constructor argument (or
``BrokerCluster(route_audit=True)``) and costs one ``is not None`` test
per decision when absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

__all__ = ["AuditRecord", "RouteAuditLog"]

ACTIONS = (
    "issued",
    "covered-by",
    "readmitted-victim",
    "merged-ingress",
    "evicted",
    "retracted",
)


@dataclass(frozen=True)
class AuditRecord:
    """One control-plane decision (see module docstring for the format)."""

    index: int
    action: str
    subscription_id: str
    node: Optional[str] = None
    via: Optional[str] = None
    blocker: Optional[str] = None
    seq: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "index": self.index,
            "action": self.action,
            "subscription_id": self.subscription_id,
        }
        for key in ("node", "via", "blocker", "seq"):
            value = getattr(self, key)
            if value is not None:
                row[key] = value
        return row

    def describe(self) -> str:
        edge = ""
        if self.node is not None:
            edge = f" at {self.node}"
            if self.via is not None:
                edge = f" at {self.node}->{self.via}"
        blocker = f" (blocker {self.blocker})" if self.blocker is not None else ""
        return f"#{self.index} {self.subscription_id}: {self.action}{edge}{blocker}"


class RouteAuditLog:
    """Append-only log of routing-fabric decisions, indexed by subscription."""

    def __init__(self) -> None:
        self.records: List[AuditRecord] = []
        self._by_subscription: Dict[str, List[AuditRecord]] = {}

    def record(
        self,
        action: str,
        subscription_id: str,
        node: Optional[str] = None,
        via: Optional[str] = None,
        blocker: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> AuditRecord:
        if action not in ACTIONS:
            raise ValueError(f"unknown audit action {action!r}")
        entry = AuditRecord(
            index=len(self.records),
            action=action,
            subscription_id=subscription_id,
            node=node,
            via=via,
            blocker=blocker,
            seq=seq,
        )
        self.records.append(entry)
        self._by_subscription.setdefault(subscription_id, []).append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterable[AuditRecord]:
        return iter(self.records)

    def for_subscription(self, subscription_id: str) -> List[AuditRecord]:
        """All decisions about one subscription, in decision order."""
        return list(self._by_subscription.get(subscription_id, ()))

    def why(
        self, subscription_id: str, node: str, via: Optional[str] = None
    ) -> Optional[AuditRecord]:
        """The most recent decision about ``subscription_id`` at ``node``
        (optionally narrowed to the ``node -> via`` edge) — i.e. why the
        entry there exists, or why it doesn't."""
        for entry in reversed(self._by_subscription.get(subscription_id, ())):
            if entry.node != node:
                continue
            if via is not None and entry.via is not None and entry.via != via:
                continue
            return entry
        return None

    def tally(self) -> Dict[str, int]:
        """Decision counts by action, for reports."""
        counts: Dict[str, int] = {}
        for entry in self.records:
            counts[entry.action] = counts.get(entry.action, 0) + 1
        return counts

    def as_dicts(self) -> List[Dict[str, object]]:
        return [entry.as_dict() for entry in self.records]
