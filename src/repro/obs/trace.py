"""Event tracing: spans, trace contexts and the sampling tracer.

The routed cluster's metrics (:mod:`repro.sim.metrics`) are aggregate —
they say *how many* events were delivered, dropped or delayed, never
*which* event went *where*.  This module adds per-event causality: a
:class:`Tracer` samples publications at their head (1-in-N, plus
always-sample while an anomaly is active) and threads a
:class:`TraceContext` through the cluster's message plane, emitting one
:class:`Span` per pipeline stage:

``publish``
    the event enters the system at its ingress broker (the trace root);
``queue``
    mailbox wait, from enqueue to service start (attrs: batch size,
    hop count, broker incarnation);
``match``
    the service cycle that matched the event (attrs: batch size, match
    count, incarnation);
``deliver``
    local deliveries produced by a match (attrs: delivery count,
    subscription ids, truncated past a cap);
``forward``
    one per outgoing overlay link *per event*, spanning the link transfer
    time (attrs: ``link="a->b"``, latency, hop count).  When the cluster
    coalesces several events bound for the same next hop into one
    ``event.forward_batch`` message, each member event still gets its own
    forward span — carrying ``coalesced=N`` and the shared batch transfer
    time — and its own forked child context, so per-event causality (and
    loss attribution) is unchanged by batching;
``drop``
    a *terminal* span explaining why the event (or one of its forwarded
    copies) died.  ``status="dropped"`` marks a definite loss (crashed
    in-service batch, dropped mailbox, publish to a dead broker, network
    drop); ``status="at_risk"`` marks a *potential* loss recorded when an
    event is served while the overlay is degraded (routes pruned by
    failover), where pruned routing state silently skips deliveries that
    a healthy fabric would have made.

Spans carry sim-clock timestamps, so durations are simulated time, and
parent ids, so each trace is a tree rooted at its publish span.  The
loss-attribution oracle (:mod:`repro.obs.loss`) consumes these spans;
exporters live in :mod:`repro.obs.export`.

Sampling is head-based and cheap: the decision is made once per publish
(one counter increment + modulo), unsampled events carry ``trace=None``
through the whole pipeline (one attribute check per stage), and a cluster
constructed without a tracer pays a single ``is not None`` test per
publish.  ``sample_on_anomaly`` makes the tracer sticky-sample every
publication from the moment a fault is observed (crash, link failure,
suspicion, network drop) until the cluster reports itself healthy again,
so degraded windows are always covered even at 1-in-1000 sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Span", "TraceContext", "Tracer"]

# Definite loss: the event (or a forwarded copy) is unrecoverably gone.
STATUS_OK = "ok"
STATUS_DROPPED = "dropped"
# Potential loss: served while routing was degraded; deliveries beyond a
# pruned route are silently skipped, so the event *may* have lost some.
STATUS_AT_RISK = "at_risk"


@dataclass
class Span:
    """One traced pipeline stage of one event."""

    span_id: int
    trace_id: int
    event_id: str
    name: str
    start: float
    end: float
    broker: Optional[str] = None
    parent_id: Optional[int] = None
    status: str = STATUS_OK
    cause: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_terminal_drop(self) -> bool:
        return self.name == "drop" and self.status == STATUS_DROPPED

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready rendering (the span-dump exporter's row format)."""
        row: Dict[str, object] = {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "event_id": self.event_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "broker": self.broker,
            "parent_id": self.parent_id,
            "status": self.status,
        }
        if self.cause is not None:
            row["cause"] = self.cause
        if self.attrs:
            row["attrs"] = dict(self.attrs)
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cause = f", cause={self.cause!r}" if self.cause else ""
        return (
            f"Span({self.name!r}, id={self.span_id}, broker={self.broker!r}, "
            f"[{self.start:.4f}..{self.end:.4f}], status={self.status!r}{cause})"
        )


class TraceContext:
    """The sampled-trace handle threaded through the message plane.

    Carries the trace id, the traced event's id and the span the *next*
    stage should parent itself on.  Each forwarded copy of an event gets
    its own context (forked under its forward span) so the span tree
    mirrors the overlay fan-out.
    """

    __slots__ = ("trace_id", "event_id", "parent_id")

    def __init__(self, trace_id: int, event_id: str, parent_id: Optional[int]) -> None:
        self.trace_id = trace_id
        self.event_id = event_id
        self.parent_id = parent_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext(trace={self.trace_id}, event={self.event_id!r}, "
            f"parent={self.parent_id})"
        )


class Tracer:
    """Head-sampling span collector for the routed cluster.

    ``sample_every=N`` samples one publication in N (the first, then every
    Nth).  While an anomaly is active (``note_anomaly`` /
    ``clear_anomaly``, driven by the cluster's fault hooks) every
    publication is sampled regardless, so loss windows are always traced.
    ``max_spans`` bounds memory on long runs: past the cap only ``drop``
    spans are still recorded (attribution must never go blind) and
    :attr:`truncated` is set.
    """

    def __init__(
        self,
        sample_every: int = 1,
        sample_on_anomaly: bool = True,
        max_spans: Optional[int] = None,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        if max_spans is not None and max_spans < 1:
            raise ValueError("max_spans must be positive when given")
        self.sample_every = sample_every
        self.sample_on_anomaly = sample_on_anomaly
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self._by_event: Dict[str, List[Span]] = {}
        self._next_span = itertools.count(1)
        self._next_trace = itertools.count(1)
        self._published = 0
        self.sampled_traces = 0
        self.truncated = False
        self.anomaly_active = False
        self.anomalies: List[Tuple[float, str]] = []

    # -- sampling ----------------------------------------------------------

    def should_sample(self) -> bool:
        """The head-based decision for the publication just counted."""
        if self.sample_on_anomaly and self.anomaly_active:
            return True
        return (self._published - 1) % self.sample_every == 0

    def begin_trace(self, event, broker: str, now: float) -> Optional[TraceContext]:
        """Apply head sampling to one publication; on a hit, open the
        trace with its root ``publish`` span and return the context."""
        self._published += 1
        if not self.should_sample():
            return None
        self.sampled_traces += 1
        trace = TraceContext(next(self._next_trace), event.event_id, None)
        trace.parent_id = self.record_span(
            "publish", trace, start=now, end=now, broker=broker
        )
        return trace

    def fork(self, trace: TraceContext, parent_id: int) -> TraceContext:
        """A child context for a forwarded copy of the traced event."""
        return TraceContext(trace.trace_id, trace.event_id, parent_id)

    # -- span recording ----------------------------------------------------

    def record_span(
        self,
        name: str,
        trace: TraceContext,
        start: float,
        end: float,
        broker: Optional[str] = None,
        parent_id: Optional[int] = None,
        status: str = STATUS_OK,
        cause: Optional[str] = None,
        **attrs: object,
    ) -> int:
        """Append one finished span to the trace; returns its span id."""
        span_id = next(self._next_span)
        if (
            self.max_spans is not None
            and len(self.spans) >= self.max_spans
            and name != "drop"
        ):
            self.truncated = True
            return span_id
        span = Span(
            span_id=span_id,
            trace_id=trace.trace_id,
            event_id=trace.event_id,
            name=name,
            start=start,
            end=end,
            broker=broker,
            parent_id=parent_id if parent_id is not None else trace.parent_id,
            status=status,
            cause=cause,
            attrs=attrs,
        )
        self.spans.append(span)
        self._by_event.setdefault(trace.event_id, []).append(span)
        return span_id

    def record_drop(
        self,
        trace: TraceContext,
        now: float,
        broker: Optional[str],
        cause: str,
        definite: bool = True,
        **attrs: object,
    ) -> int:
        """Record a terminal (or, with ``definite=False``, an at-risk)
        drop span explaining where and why a traced event died."""
        return self.record_span(
            "drop",
            trace,
            start=now,
            end=now,
            broker=broker,
            status=STATUS_DROPPED if definite else STATUS_AT_RISK,
            cause=cause,
            **attrs,
        )

    # -- anomaly window ----------------------------------------------------

    def note_anomaly(self, kind: str, now: float = 0.0) -> None:
        """Enter (or extend) the always-sample window; ``kind`` is kept
        for diagnostics (bounded to the most recent 1000)."""
        self.anomaly_active = True
        self.anomalies.append((now, kind))
        if len(self.anomalies) > 1000:
            del self.anomalies[:-1000]

    def clear_anomaly(self) -> None:
        self.anomaly_active = False

    # -- reading -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.spans)

    @property
    def published(self) -> int:
        """Publications the sampling decision has seen."""
        return self._published

    def spans_for_event(self, event_id: str) -> List[Span]:
        return list(self._by_event.get(event_id, ()))

    def traced_event_ids(self) -> List[str]:
        return list(self._by_event)

    def drop_spans(self, definite_only: bool = False) -> List[Span]:
        return [
            span
            for span in self.spans
            if span.name == "drop"
            and (not definite_only or span.status == STATUS_DROPPED)
        ]

    def stats(self) -> Dict[str, object]:
        """Plain-dict tracer accounting for exporters and reports."""
        drops = self.drop_spans()
        return {
            "published": self._published,
            "sampled_traces": self.sampled_traces,
            "sample_every": self.sample_every,
            "spans": len(self.spans),
            "drop_spans": len(drops),
            "definite_drops": sum(1 for s in drops if s.status == STATUS_DROPPED),
            "anomalies": len(self.anomalies),
            "truncated": self.truncated,
        }
