"""Typed wire protocol: msgpack messages in length-prefixed frames.

Frame layout (everything big-endian)::

    +----------------+---------+----------------------------------+
    | length: uint32 | version | msgpack [type, request_id, body] |
    +----------------+---------+----------------------------------+

``length`` counts the version byte plus the msgpack payload.  The payload
is always a 3-element msgpack array: the message type (string), a request
id (integer; ``0`` means "no ack expected") and a type-specific body map.
Acks echo the request id of the message they answer, which is how the
client SDK correlates concurrent in-flight requests on one connection.

Message types
=============

``hello``            first frame on every connection: role (``client`` /
                     ``broker``), sender name, protocol version.
``subscribe``        place one subscription (client) / advertise a route
                     learned from a peer (broker link).
``subscribe_many``   batched ``subscribe`` — one frame, one ack.
``unsubscribe``      retract a subscription by id.
``publish``          inject one event at this broker.
``publish_many``     batched ``publish`` — one frame, one ack.
``ack``              positive/negative reply to a request id.
``event``            server → client delivery: one event plus the ids of
                     the session's subscriptions it matched.
``event_batch``      server → client: every delivery one routing cycle
                     (one ``publish_many`` / ``forward_batch`` served) owes
                     a session, in arrival order; a cycle that owes it a
                     single delivery sends ``event``.
``error``            typed protocol error (bad version, unknown message
                     type, malformed body); carries a machine-readable
                     ``code``.  Protocol errors are *replies* — the
                     connection survives them (only unrecoverable framing
                     corruption closes it).
``forward``          broker → broker: one routed event with hop count and
                     origin timestamp.
``forward_batch``    broker → broker: coalesced forwards for one link.
``stats``            request a server metrics snapshot (answered by ack).
``drain``            ask the server to flush and close gracefully.

The codec layer (:func:`encode_subscription` & friends) is pure — no IO,
no asyncio — so the property suite can fuzz round-trips directly.

Version 2 added ``event_batch``.  A version-1 client ignores push types
it does not know, so it would lose batched deliveries silently; the bump
makes the ``hello`` check refuse it (``bad_version``) instead.  Nothing
else changed: every other version-2 frame is the version-1 frame with the
version byte's new value.

Encode once
===========

An event's ``{t, a, ts, id}`` map is encoded by its publisher and by
nobody else.  :func:`decode_event` validates the decoded map exactly as
it validates any other and then keeps the bytes the map was decoded from
on the :class:`Event` it returns; :func:`encode_event` hands those bytes
back (as a :class:`~repro.net.msgpack_lite.Packed` value ``packb`` emits
verbatim) instead of rebuilding the map.  So the event member of every
``forward``, ``forward_batch``, ``event`` and ``event_batch`` frame a
broker sends for a socket-received event is the publisher's own
encoding, spliced; an event constructed locally is encoded the ordinary
way.  A receiver may assume such a member is valid msgpack that passed
the sending hop's ``decode_event`` — **not** that it is canonical (a
third-party publisher may have used wider integer/string headers,
float32, an integer ``ts``, extra or repeated keys), so every hop decodes
and validates it again.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.pubsub.algebra import FilterExpr
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Operator, Predicate, Subscription

from repro.net.msgpack_lite import MsgpackError, SpanMap, packb, unpackb

#: Protocol version carried in every frame (and asserted in ``hello``).
WIRE_VERSION = 2

#: Hard ceiling on one frame's payload; anything larger is a protocol
#: error (prevents a corrupt length prefix from ballooning the buffer).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Where :func:`event_push_frames` cuts a session's deliveries into
#: another frame: a batch of high-fan-out events must stay as far below
#: ``MAX_FRAME_BYTES`` as the per-event frames it replaces.
EVENT_BATCH_BYTES = 1024 * 1024

_HEADER = struct.Struct(">I")
_VERSION_BYTE = bytes((WIRE_VERSION,))

MESSAGE_TYPES = frozenset(
    {
        "hello",
        "subscribe",
        "subscribe_many",
        "unsubscribe",
        "publish",
        "publish_many",
        "ack",
        "event",
        "event_batch",
        "error",
        "forward",
        "forward_batch",
        "stats",
        "drain",
    }
)


class WireError(Exception):
    """Base class of wire-protocol failures."""

    code = "wire_error"


class FrameError(WireError):
    """Unrecoverable framing corruption (connection must close)."""

    code = "frame_error"


class ProtocolError(WireError):
    """A well-framed but invalid message (recoverable: reply ``error``)."""

    code = "protocol_error"

    def __init__(self, message: str, code: str = "protocol_error") -> None:
        super().__init__(message)
        self.code = code


@dataclass
class Message:
    """One decoded wire message."""

    msg_type: str
    request_id: int
    body: Dict[str, Any]


# -- framing -----------------------------------------------------------------


def encode_frame(msg_type: str, request_id: int, body: Dict[str, Any]) -> bytes:
    """One complete wire frame for a message."""
    payload = packb([msg_type, request_id, body])
    return _HEADER.pack(len(payload) + 1) + _VERSION_BYTE + payload


def decode_payload(payload: bytes) -> Message:
    """Decode one frame payload (version byte + msgpack) to a Message.

    Raises :class:`ProtocolError` for recoverable problems (bad version,
    unknown message type, malformed body) — the caller should reply with
    an ``error`` message and keep the connection.
    """
    if not payload:
        raise ProtocolError("empty frame", code="empty_frame")
    version = payload[0]
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} (expected {WIRE_VERSION})",
            code="bad_version",
        )
    try:
        decoded = unpackb(payload, 1)
    except MsgpackError as error:
        raise ProtocolError(f"malformed msgpack payload: {error}", code="bad_payload")
    if (
        not isinstance(decoded, list)
        or len(decoded) != 3
        or not isinstance(decoded[0], str)
        or not isinstance(decoded[1], int)
        or not isinstance(decoded[2], dict)
    ):
        raise ProtocolError(
            "frame payload must be [type, request_id, body]", code="bad_payload"
        )
    msg_type, request_id, body = decoded
    if msg_type not in MESSAGE_TYPES:
        raise ProtocolError(
            f"unknown message type {msg_type!r}", code="unknown_type"
        )
    return Message(msg_type=msg_type, request_id=request_id, body=body)


class FrameDecoder:
    """Incremental frame splitter (sans-IO; feed bytes, iterate payloads).

    A partially received frame simply waits for more bytes; only a length
    prefix exceeding :data:`MAX_FRAME_BYTES` (corrupt or hostile) is
    unrecoverable and raises :class:`FrameError`.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max = max_frame_bytes

    def feed(self, data: bytes) -> List[bytes]:
        """Append received bytes; return the completed frame payloads."""
        buffer = self._buffer
        buffer += data
        frames: List[bytes] = []
        available = len(buffer)
        # Walk by offset and trim once per call, not once per frame.
        start = 0
        while available - start >= _HEADER.size:
            (length,) = _HEADER.unpack_from(buffer, start)
            if length > self._max:
                raise FrameError(
                    f"frame length {length} exceeds limit {self._max}"
                )
            end = start + _HEADER.size + length
            if end > available:
                break
            frames.append(bytes(buffer[start + _HEADER.size : end]))
            start = end
        if start:
            del buffer[:start]
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# -- IR codecs ---------------------------------------------------------------
#
# Predicates travel as compact 3-element arrays [attribute, operator, value]
# (operator by enum value, EXISTS carries a nil value); subscriptions,
# filter expressions and events as small maps.  Everything round-trips to
# identity — pinned by the codec property suite.


def encode_predicate(predicate: Predicate) -> List[Any]:
    return [predicate.attribute, predicate.operator.value, predicate.value]


def decode_predicate(data: Any) -> Predicate:
    if not isinstance(data, (list, tuple)) or len(data) != 3:
        raise ProtocolError("predicate must be [attribute, operator, value]",
                            code="bad_predicate")
    attribute, operator, value = data
    if not isinstance(attribute, str) or not isinstance(operator, str):
        raise ProtocolError("predicate attribute/operator must be strings",
                            code="bad_predicate")
    try:
        op = Operator(operator)
    except ValueError:
        raise ProtocolError(f"unknown predicate operator {operator!r}",
                            code="bad_predicate") from None
    try:
        return Predicate(attribute=attribute, operator=op, value=value)
    except ValueError as error:
        raise ProtocolError(str(error), code="bad_predicate") from None


def encode_subscription(subscription: Subscription) -> Dict[str, Any]:
    return {
        "t": subscription.event_type,
        "p": [encode_predicate(p) for p in subscription.predicates],
        "s": subscription.subscriber,
        "id": subscription.subscription_id,
    }


def decode_subscription(data: Any) -> Subscription:
    if not isinstance(data, dict):
        raise ProtocolError("subscription body must be a map", code="bad_subscription")
    event_type = data.get("t")
    predicates = data.get("p", [])
    subscriber = data.get("s", "")
    subscription_id = data.get("id")
    if not isinstance(event_type, str) or not event_type:
        raise ProtocolError("subscription event type missing", code="bad_subscription")
    if not isinstance(predicates, list):
        raise ProtocolError("subscription predicates must be a list",
                            code="bad_subscription")
    if not isinstance(subscriber, str):
        raise ProtocolError("subscriber must be a string", code="bad_subscription")
    if not isinstance(subscription_id, str) or not subscription_id:
        raise ProtocolError("subscription id missing", code="bad_subscription")
    return Subscription(
        event_type=event_type,
        predicates=tuple(decode_predicate(p) for p in predicates),
        subscriber=subscriber,
        subscription_id=subscription_id,
    )


def encode_filter_expr(expr: FilterExpr) -> Dict[str, Any]:
    return {
        "t": expr.event_type,
        "p": [encode_predicate(p) for p in expr.predicates],
        "n": expr.name,
    }


def decode_filter_expr(data: Any) -> FilterExpr:
    if not isinstance(data, dict):
        raise ProtocolError("filter body must be a map", code="bad_filter")
    event_type = data.get("t")
    predicates = data.get("p", [])
    name = data.get("n", "filter")
    if not isinstance(event_type, str) or not event_type:
        raise ProtocolError("filter event type missing", code="bad_filter")
    if not isinstance(predicates, list) or not isinstance(name, str):
        raise ProtocolError("malformed filter body", code="bad_filter")
    return FilterExpr(
        event_type=event_type,
        predicates=tuple(decode_predicate(p) for p in predicates),
        name=name,
    )


def encode_event(event: Event) -> Any:
    """The event as a msgpack-ready value: the bytes it was decoded from
    when it came off a socket (see "Encode once"), a fresh map otherwise."""
    packed = event.__dict__.get("_wire")
    if packed is not None:
        return packed
    return {
        "t": event.event_type,
        "a": dict(event.attributes),
        "ts": event.timestamp,
        "id": event.event_id,
    }


def decode_event(data: Any) -> Event:
    if not isinstance(data, dict):
        raise ProtocolError("event body must be a map", code="bad_event")
    event_type = data.get("t")
    attributes = data.get("a", {})
    timestamp = data.get("ts", 0.0)
    event_id = data.get("id")
    if not isinstance(event_type, str) or not event_type:
        raise ProtocolError("event type missing", code="bad_event")
    if not isinstance(attributes, dict):
        raise ProtocolError("event attributes must be a map", code="bad_event")
    if not isinstance(timestamp, (int, float)) or isinstance(timestamp, bool):
        raise ProtocolError("event timestamp must be numeric", code="bad_event")
    if not isinstance(event_id, str) or not event_id:
        raise ProtocolError("event id missing", code="bad_event")
    for key, value in attributes.items():
        if not isinstance(key, str):
            raise ProtocolError("event attribute names must be strings",
                                code="bad_event")
        if not isinstance(value, (str, int, float, bool)):
            raise ProtocolError(
                f"event attribute {key!r} has unsupported type "
                f"{type(value).__name__}",
                code="bad_event",
            )
    event = Event(
        event_type=event_type,
        attributes=attributes,
        timestamp=float(timestamp),
        event_id=event_id,
    )
    if type(data) is SpanMap:
        # Validated above, so the map's own bytes can stand in for it.  Kept
        # in the instance dict: Event gets no field, events that never touch
        # a socket pay nothing.
        event.__dict__["_wire"] = data.packed()
    return event


def decode_origin_ts(value: Any) -> float:
    """The ``ots`` field beside an event (publisher's monotonic stamp)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError("origin timestamp must be numeric", code="bad_event")
    return float(value)


def decode_hops(value: Any) -> int:
    """The ``hops`` field beside an event."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError("hop count must be an integer", code="bad_event")
    return value


# -- message constructors ----------------------------------------------------


def hello_frame(role: str, name: str, request_id: int) -> bytes:
    return encode_frame(
        "hello", request_id, {"role": role, "name": name, "version": WIRE_VERSION}
    )


def ack_frame(
    request_id: int, ok: bool = True, error: Optional[str] = None,
    data: Optional[Dict[str, Any]] = None,
) -> bytes:
    body: Dict[str, Any] = {"ok": ok}
    if error is not None:
        body["error"] = error
    if data is not None:
        body["data"] = data
    return encode_frame("ack", request_id, body)


def error_frame(code: str, message: str, request_id: int = 0) -> bytes:
    return encode_frame("error", request_id, {"code": code, "message": message})


def subscribe_frame(subscription: Subscription, request_id: int) -> bytes:
    return encode_frame(
        "subscribe", request_id, {"sub": encode_subscription(subscription)}
    )


def subscribe_many_frame(
    subscriptions: Iterable[Subscription], request_id: int
) -> bytes:
    return encode_frame(
        "subscribe_many",
        request_id,
        {"subs": [encode_subscription(s) for s in subscriptions]},
    )


def unsubscribe_frame(subscription_id: str, request_id: int) -> bytes:
    return encode_frame("unsubscribe", request_id, {"id": subscription_id})


def publish_frame(event: Event, request_id: int, origin_ts: float = 0.0) -> bytes:
    return encode_frame(
        "publish", request_id, {"event": encode_event(event), "ots": origin_ts}
    )


def publish_many_frame(
    events: Iterable[Event], request_id: int, origin_ts: float = 0.0
) -> bytes:
    return encode_frame(
        "publish_many",
        request_id,
        {"events": [encode_event(e) for e in events], "ots": origin_ts},
    )


def event_frame(
    event: Event, subscription_ids: List[str], origin_ts: float, hops: int
) -> bytes:
    """Server → client delivery: one event, every matched subscription id
    owned by the receiving session (per-subscriber fan-out is vectorized
    on the wire).  Several deliveries owed to one session at once travel
    as :func:`event_batch_frame` instead."""
    return encode_frame(
        "event",
        0,
        {
            "event": encode_event(event),
            "subs": subscription_ids,
            "ots": origin_ts,
            "hops": hops,
        },
    )


def event_batch_frame(
    members: Iterable[Tuple[Event, List[str], float, int]]
) -> bytes:
    """Server → client: coalesced deliveries for one session —
    ``(event, subscription_ids, origin_ts, hops)`` per member, in arrival
    order, each what :func:`event_frame` would carry alone."""
    return encode_frame(
        "event_batch",
        0,
        {
            "members": [
                [encode_event(event), subscription_ids, origin_ts, hops]
                for event, subscription_ids, origin_ts, hops in members
            ]
        },
    )


def event_push_frames(
    members: List[Tuple[Event, List[str], float, int]]
) -> List[bytes]:
    """The frames that push one session's deliveries of one routing cycle,
    in order: ``event`` for a lone member, ``event_batch`` for several, a
    new frame begun once the members so far weigh :data:`EVENT_BATCH_BYTES`
    (spliced event bytes plus subscription-id characters; an event built
    locally has no bytes yet and weighs its ids alone — a broker's events
    all come off sockets)."""
    frames: List[bytes] = []
    first = weight = 0
    for index, (event, subscription_ids, _origin_ts, _hops) in enumerate(members):
        packed = event.__dict__.get("_wire")
        if packed is not None:
            weight += len(packed.data)
        weight += sum(map(len, subscription_ids))
        if weight >= EVENT_BATCH_BYTES or index == len(members) - 1:
            chunk = members[first : index + 1]
            frames.append(
                event_frame(*chunk[0]) if len(chunk) == 1 else event_batch_frame(chunk)
            )
            first, weight = index + 1, 0
    return frames


def stats_frame(request_id: int) -> bytes:
    return encode_frame("stats", request_id, {})


def drain_frame(request_id: int) -> bytes:
    return encode_frame("drain", request_id, {})


def forward_frame(event: Event, hops: int, origin_ts: float) -> bytes:
    return encode_frame(
        "forward", 0, {"event": encode_event(event), "hops": hops, "ots": origin_ts}
    )


def forward_batch_frame(
    members: Iterable[Tuple[Event, int, float]]
) -> bytes:
    """Coalesced broker-to-broker forwards: ``(event, hops, origin_ts)``
    per member, one frame (and one syscall) per link per flush."""
    return encode_frame(
        "forward_batch",
        0,
        {"members": [[encode_event(e), hops, ots] for e, hops, ots in members]},
    )
