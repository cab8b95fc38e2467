"""Property tests for the wire codec: IR round-trips and frame handling.

The satellite contract: fuzz round-trip of ``Subscription`` / ``FilterExpr``
/ events across **all** predicate operators (ranges, EXISTS, prefix/contains
wildcards, unicode attributes) must be identity, and malformed frames
(truncated, bad version, unknown message type) must yield typed errors —
never crashes, never silent misdecodes.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import wire
from repro.net.client import BrokerClient
from repro.net.msgpack_lite import Packed, SpanMap, packb, unpackb
from repro.net.wire import (
    WIRE_VERSION,
    FrameDecoder,
    FrameError,
    ProtocolError,
    decode_event,
    decode_filter_expr,
    decode_payload,
    decode_subscription,
    encode_event,
    encode_filter_expr,
    encode_frame,
    encode_subscription,
)
from repro.pubsub.algebra import FilterExpr
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Operator, Predicate, Subscription
from repro.sim.rng import SeededRNG

# ---------------------------------------------------------------------------
# Strategies: every operator, unicode attribute names, all value types
# ---------------------------------------------------------------------------

attribute_names = st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10),
    st.sampled_from(["θέμα", "優先度", "città", "тема"]),
)

attribute_values = st.one_of(
    st.text(max_size=20),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
)

comparison_operators = st.sampled_from(
    [
        Operator.EQ,
        Operator.NE,
        Operator.LT,
        Operator.LE,
        Operator.GT,
        Operator.GE,
        Operator.PREFIX,
        Operator.CONTAINS,
    ]
)


def predicate_strategy():
    comparison = st.builds(
        lambda attr, op, value: Predicate(attr, op, value),
        attribute_names,
        comparison_operators,
        attribute_values,
    )
    exists = st.builds(
        lambda attr: Predicate(attr, Operator.EXISTS, None), attribute_names
    )
    return st.one_of(comparison, exists)


subscription_strategy = st.builds(
    lambda event_type, predicates, subscriber: Subscription(
        event_type=event_type,
        predicates=tuple(predicates),
        subscriber=subscriber,
    ),
    st.text(min_size=1, max_size=20),
    st.lists(predicate_strategy(), max_size=6),
    st.text(max_size=12),
)

filter_strategy = st.builds(
    lambda event_type, predicates, name: FilterExpr(
        event_type=event_type, predicates=tuple(predicates), name=name
    ),
    st.text(min_size=1, max_size=20),
    st.lists(predicate_strategy(), max_size=6),
    st.text(min_size=1, max_size=12),
)

event_strategy = st.builds(
    lambda event_type, attributes, timestamp: Event(
        event_type=event_type, attributes=attributes, timestamp=timestamp
    ),
    st.text(min_size=1, max_size=20),
    st.dictionaries(attribute_names, attribute_values, max_size=6),
    st.floats(min_value=0, max_value=1e9, allow_nan=False),
)


# ---------------------------------------------------------------------------
# Round-trips == identity (through real msgpack bytes, not just dicts)
# ---------------------------------------------------------------------------


def frame_round_trip(msg_type: str, body: dict) -> dict:
    """Push a body through a complete frame encode/decode cycle."""
    frames = FrameDecoder().feed(encode_frame(msg_type, 1, body))
    assert len(frames) == 1
    message = decode_payload(frames[0])
    assert message.msg_type == msg_type and message.request_id == 1
    return message.body


class TestRoundTrips:
    @given(subscription_strategy)
    @settings(max_examples=200, deadline=None)
    def test_subscription_identity(self, subscription):
        body = frame_round_trip("subscribe", {"sub": encode_subscription(subscription)})
        decoded = decode_subscription(body["sub"])
        assert decoded == subscription
        assert decoded.subscription_id == subscription.subscription_id
        assert decoded.predicates == subscription.predicates

    @given(filter_strategy)
    @settings(max_examples=150, deadline=None)
    def test_filter_expr_identity(self, expr):
        decoded = decode_filter_expr(
            frame_round_trip("subscribe", {"f": encode_filter_expr(expr)})["f"]
        )
        # FilterExpr compares by identity, so check the fields.
        assert decoded.event_type == expr.event_type
        assert decoded.predicates == expr.predicates
        assert decoded.name == expr.name

    @given(event_strategy)
    @settings(max_examples=200, deadline=None)
    def test_event_identity(self, event):
        body = frame_round_trip("publish", {"event": encode_event(event)})
        decoded = decode_event(body["event"])
        assert decoded == event
        assert decoded.event_id == event.event_id
        assert decoded.timestamp == event.timestamp
        assert dict(decoded.attributes) == dict(event.attributes)

    @given(event_strategy)
    @settings(max_examples=100, deadline=None)
    def test_matching_is_transport_invariant(self, event):
        # A decoded event matches exactly the predicates the original did.
        predicates = [
            Predicate(attr, Operator.EXISTS, None) for attr in event.attributes
        ]
        decoded = decode_event(encode_event(event))
        for predicate in predicates:
            assert predicate.matches(decoded) == predicate.matches(event)

    def test_range_exists_wildcard_operators_explicitly(self):
        subscription = Subscription(
            event_type="news.story",
            predicates=(
                Predicate("priority", Operator.GE, 2),
                Predicate("priority", Operator.LE, 8),
                Predicate("score", Operator.GT, 0.25),
                Predicate("author", Operator.EXISTS, None),
                Predicate("title", Operator.PREFIX, "Breaking"),
                Predicate("body", Operator.CONTAINS, "δίκτυο"),
                Predicate("flagged", Operator.NE, True),
            ),
            subscriber="σ-client",
        )
        assert decode_subscription(encode_subscription(subscription)) == subscription


# ---------------------------------------------------------------------------
# Frame splitting
# ---------------------------------------------------------------------------


class TestFraming:
    @given(st.lists(event_strategy, min_size=1, max_size=6), st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_reassembly_across_arbitrary_chunking(self, events, chunk):
        stream = b"".join(
            wire.publish_frame(event, index + 1) for index, event in enumerate(events)
        )
        decoder = FrameDecoder()
        payloads = []
        for offset in range(0, len(stream), chunk):
            payloads.extend(decoder.feed(stream[offset : offset + chunk]))
        assert decoder.pending_bytes == 0
        assert len(payloads) == len(events)
        for event, payload in zip(events, payloads):
            assert decode_event(decode_payload(payload).body["event"]) == event

    def test_partial_frame_waits(self):
        frame = wire.hello_frame("client", "x", 1)
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.pending_bytes == len(frame) - 1
        assert len(decoder.feed(frame[-1:])) == 1

    def test_oversized_length_prefix_is_fatal(self):
        decoder = FrameDecoder(max_frame_bytes=1024)
        with pytest.raises(FrameError):
            decoder.feed(b"\x7f\xff\xff\xff")
        # ... also behind complete frames, and before its body arrives
        # (nothing is buffered or allocated for the announced length).
        decoder = FrameDecoder(max_frame_bytes=1024)
        with pytest.raises(FrameError):
            decoder.feed(wire.stats_frame(1) * 3 + b"\x00\x00\x04\x01")
        assert decoder.pending_bytes < 1024

    def test_one_chunk_bytewise_and_every_split_agree(self):
        frames = [
            wire.publish_frame(Event("e", {"k": index}, event_id=f"e{index}"), index + 1)
            for index in range(40)
        ] + [wire.stats_frame(99), encode_frame("ack", 0, {})]
        stream = b"".join(frames)
        expected = [frame[4:] for frame in frames]

        whole = FrameDecoder()
        assert whole.feed(stream) == expected
        assert whole.pending_bytes == 0

        bytewise, seen = FrameDecoder(), []
        for index in range(len(stream)):
            seen.extend(bytewise.feed(stream[index : index + 1]))
            complete = sum(len(frame) for frame in frames[: len(seen)])
            assert bytewise.pending_bytes == index + 1 - complete, f"byte {index}"
        assert seen == expected

        pair = frames[0] + frames[1]
        for split in range(len(pair) + 1):
            decoder = FrameDecoder()
            first = decoder.feed(pair[:split])
            assert len(first) == (split >= len(frames[0])) + (split == len(pair))
            assert decoder.pending_bytes == split - sum(len(p) + 4 for p in first)
            assert first + decoder.feed(pair[split:]) == expected[:2], f"split {split}"
            assert decoder.pending_bytes == 0


# ---------------------------------------------------------------------------
# Malformed payloads: typed ProtocolError, correct code, never a crash
# ---------------------------------------------------------------------------


class TestMalformed:
    def test_bad_version_byte(self):
        frame = wire.hello_frame("client", "x", 1)
        payload = FrameDecoder().feed(frame)[0]
        with pytest.raises(ProtocolError) as exc:
            decode_payload(bytes([WIRE_VERSION + 1]) + payload[1:])
        assert exc.value.code == "bad_version"

    def test_empty_payload(self):
        with pytest.raises(ProtocolError) as exc:
            decode_payload(b"")
        assert exc.value.code == "empty_frame"

    def test_unknown_message_type(self):
        payload = FrameDecoder().feed(encode_frame("hello", 1, {}))[0]
        from repro.net.wire import packb

        forged = bytes([WIRE_VERSION]) + packb(["nope", 1, {}])
        with pytest.raises(ProtocolError) as exc:
            decode_payload(forged)
        assert exc.value.code == "unknown_type"
        assert decode_payload(payload).msg_type == "hello"  # decoder unharmed

    def test_garbage_msgpack_payload(self):
        with pytest.raises(ProtocolError) as exc:
            decode_payload(bytes([WIRE_VERSION]) + b"\xc1\xc1\xc1")
        assert exc.value.code == "bad_payload"

    def test_wrong_payload_shape(self):
        from repro.net.wire import packb

        with pytest.raises(ProtocolError) as exc:
            decode_payload(bytes([WIRE_VERSION]) + packb({"not": "a list"}))
        assert exc.value.code == "bad_payload"

    @pytest.mark.parametrize(
        "decoder, payload, code",
        [
            (decode_subscription, "not a map", "bad_subscription"),
            (decode_subscription, {"t": "", "p": [], "s": "", "id": "x"},
             "bad_subscription"),
            (decode_subscription, {"t": "e", "p": [], "s": "", "id": ""},
             "bad_subscription"),
            (decode_subscription,
             {"t": "e", "p": [["a", "nope", 1]], "s": "", "id": "x"},
             "bad_predicate"),
            (decode_subscription,
             {"t": "e", "p": [["a", "eq"]], "s": "", "id": "x"},
             "bad_predicate"),
            (decode_subscription,
             {"t": "e", "p": [["a", "eq", None]], "s": "", "id": "x"},
             "bad_predicate"),
            (decode_filter_expr, {"t": "e", "p": "x", "n": "f"}, "bad_filter"),
            (decode_event, {"t": "", "a": {}, "ts": 0.0, "id": "e"}, "bad_event"),
            (decode_event, {"t": "e", "a": {}, "ts": "late", "id": "e"}, "bad_event"),
            (decode_event, {"t": "e", "a": {"k": []}, "ts": 0.0, "id": "e"},
             "bad_event"),
            (decode_event, {"t": "e", "a": {}, "ts": 0.0, "id": ""}, "bad_event"),
        ],
    )
    def test_malformed_ir_bodies(self, decoder, payload, code):
        with pytest.raises(ProtocolError) as exc:
            decoder(payload)
        assert exc.value.code == code

    @given(st.binary(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_payload_bytes_never_crash(self, payload):
        try:
            decode_payload(payload)
        except ProtocolError:
            pass


# ---------------------------------------------------------------------------
# Encode once: socket-received events are forwarded from their own bytes
# ---------------------------------------------------------------------------
#
# All pure: a canned frame in, the decode steps a hop performs, emitted
# frame bytes out.


def receive(frame: bytes) -> wire.Message:
    """What a peer's read loop does with the bytes of one frame."""
    (payload,) = FrameDecoder().feed(frame)
    return decode_payload(payload)


def deliveries_of(*frames: bytes) -> list:
    """What a client session queues for the push frames a broker sent it,
    as ``(event, event id, subscription ids, origin ts, hops)``."""
    client = BrokerClient("127.0.0.1", 0)
    for frame in frames:
        for payload in FrameDecoder().feed(frame):
            client._handle_payload(payload)
    queue = client._events
    got = [queue.get_nowait() for _ in range(queue.qsize())]
    return [
        (d.event, d.event.event_id, d.subscription_ids, d.origin_ts, d.hops) for d in got
    ]


BOUNDARY_INTS = [
    0, 1, 127, 128, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1,
    -1, -32, -33, -128, -129, -32768, -32769, -(2**31), -(2**31) - 1, -(2**63),
]
SPLICE_VALUES = BOUNDARY_INTS + [
    0.0, -0.0, 1.5, 1e-310, 1.7976931348623157e308, math.inf, -math.inf,
    True, False,
    "", "x", "δίκτυο", "東京🛰️", "a" * 31, "a" * 32, "é" * 16, "b" * 255, "b" * 256,
]
SPLICE_NAMES = ["topic", "p", "θέμα", "優先度", "città", "n" * 31, "n" * 32, ""]
SPLICE_TYPES = ["news.story", "τύπος", "t" * 40]


def splice_event(rng: SeededRNG, index: int) -> Event:
    names = rng.sample(SPLICE_NAMES, rng.randint(0, 6))
    return Event(
        event_type=rng.choice(SPLICE_TYPES),
        attributes={name: rng.choice(SPLICE_VALUES) for name in names},
        timestamp=rng.choice([0.0, 1.5, 1e9, rng.random()]),
        event_id=f"e{index}" if index % 3 else f"évènement-{index:040d}",
    )


def check_splice_identity(seed: int, count: int) -> None:
    """Carry ``count`` events of ``SeededRNG(seed)`` publisher → ingress →
    transit → egress → subscriber through the decode steps each hop runs,
    and require every onward frame to equal the one built from the
    publisher's own ``Event`` objects."""
    repro = f"repro: check_splice_identity(seed={seed}, count={count})"
    rng = SeededRNG(seed)
    events = [splice_event(rng, index) for index in range(count)]
    ots = rng.choice([0.0, 12345.678, 1e-3])
    subs = [f"s{i}" for i in range(rng.randint(1, 20))]

    def same(spliced_frame: bytes, original_frame: bytes, what: str) -> None:
        assert spliced_frame == original_frame, f"{what}; {repro}"

    # Ingress, per-event path: publish -> forward / event.
    for index, event in enumerate(events):
        ingress = decode_event(receive(wire.publish_frame(event, 7, ots)).body["event"])
        assert ingress == event, f"event {index}; {repro}"
        same(wire.forward_frame(ingress, 1, ots), wire.forward_frame(event, 1, ots),
             f"forward of event {index}")
        same(wire.event_frame(ingress, subs, ots, 0),
             wire.event_frame(event, subs, ots, 0), f"event push of event {index}")
        transit = decode_event(receive(wire.forward_frame(ingress, 1, ots)).body["event"])
        same(wire.forward_frame(transit, 2, ots), wire.forward_frame(event, 2, ots),
             f"second forward of event {index}")

    # Ingress, batched path: publish_many -> forward_batch -> ... -> event.
    body = receive(wire.publish_many_frame(events, 8, ots)).body
    hop = [decode_event(item) for item in body["events"]]
    for hops in (1, 2):
        batch = wire.forward_batch_frame([(event, hops, ots) for event in hop])
        same(batch, wire.forward_batch_frame([(e, hops, ots) for e in events]),
             f"forward_batch at hop {hops}")
        members = receive(batch).body["members"]
        assert [(m[1], m[2]) for m in members] == [(hops, ots)] * count, repro
        hop = [decode_event(member[0]) for member in members]
        assert hop == events, f"hop {hops}; {repro}"
    # Egress: the cycle's deliveries leave as one event_batch (two members
    # or more), and arrive as what the per-event pushes would have delivered.
    owed = [(egress, subs, ots, 2) for egress in hop]
    pushes = [wire.event_frame(*member) for member in owed]
    if count > 1:
        batch = wire.event_batch_frame(owed)
        same(batch, wire.event_batch_frame([(e, subs, ots, 2) for e in events]),
             "event_batch push")
        assert wire.event_push_frames(owed) == [batch], repro
        assert deliveries_of(batch) == deliveries_of(*pushes), repro
    else:
        assert wire.event_push_frames(owed) == pushes, repro
    assert deliveries_of(*pushes) == [
        (event, event.event_id, tuple(subs), ots, 2) for event in events
    ], repro
    for index, (egress, event, push) in enumerate(zip(hop, events, pushes)):
        same(push, wire.event_frame(event, subs, ots, 2), f"event push {index}")
        delivered = decode_event(receive(push).body["event"])
        assert delivered == event and delivered.event_id == event.event_id, repro
        for name, value in event.attributes.items():
            got = delivered.attributes[name]
            assert type(got) is type(value), f"{name!r} of event {index}; {repro}"
            if isinstance(value, float):  # -0.0 == 0.0, so compare the sign too
                assert math.copysign(1, got) == math.copysign(1, value), repro


def spans_of(value):
    """Every map in a decoded structure."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from spans_of(item)
    elif isinstance(value, list):
        for item in value:
            yield from spans_of(item)


def str8(text: str) -> bytes:
    data = text.encode("utf-8")
    return b"\xd9" + bytes([len(data)]) + data


def uint64(value: int) -> bytes:
    return b"\xcf" + struct.pack(">Q", value)


def float32(value: float) -> bytes:
    return b"\xca" + struct.pack(">f", value)


def raw_frame(msg_type: str, request_id: int, body: bytes) -> bytes:
    """A frame around hand-encoded body bytes."""
    payload = b"\x93" + packb(msg_type) + packb(request_id) + body
    return struct.pack(">I", len(payload) + 1) + bytes([WIRE_VERSION]) + payload


#: A valid event map no canonical encoder would write: map16 and str8
#: headers for tiny sizes, uint64 for small integers, a float32, an integer
#: ``ts``, an unknown extra key and a repeated key (last one wins).
FOREIGN_EVENT = (
    b"\xde\x00\x07"
    + str8("t") + str8("stale.type")
    + str8("a") + b"\xdf\x00\x00\x00\x03"
    + str8("topic") + str8("ai")
    + str8("priority") + uint64(7)
    + str8("score") + float32(0.5)
    + str8("ts") + uint64(3)
    + str8("id") + b"\xda\x00\x05evt-x"
    + str8("x-extra") + b"\xdc\x00\x02\x01\xc0"
    + str8("t") + b"\xdb\x00\x00\x00\x0anews.story"
    + packb("a") + b"\x83"
    + packb("topic") + packb("ai")
    + packb("priority") + b"\xd3" + struct.pack(">q", 7)
    + packb("score") + float32(0.5)
)
CANONICAL_EVENT = Event(
    "news.story", {"topic": "ai", "priority": 7, "score": 0.5},
    timestamp=3.0, event_id="evt-x",
)


class TestEncodeOnce:
    @pytest.mark.parametrize(
        "seed, count", [(1, 1), (2, 3), (3, 15), (4, 16), (5, 17), (6, 40)]
    )
    def test_spliced_frames_equal_reencoded_frames(self, seed, count):
        check_splice_identity(seed, count)

    @given(st.integers(0, 2**32), st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_spliced_frames_equal_reencoded_frames_fuzz(self, seed, count):
        check_splice_identity(seed, count)

    def test_empty_attribute_map_and_every_value_alone(self):
        events = [Event("e", {}, event_id="empty")] + [
            Event("e", {"v": value}, event_id=f"v{index}")
            for index, value in enumerate(SPLICE_VALUES)
        ]
        members = receive(
            wire.forward_batch_frame([(event, 1, 0.5) for event in events])
        ).body["members"]
        for member, event in zip(members, events):
            decoded = decode_event(member[0])
            assert decoded == event, f"repro: value {event.attributes!r}"
            assert wire.event_frame(decoded, ["s"], 0.5, 1) == wire.event_frame(
                event, ["s"], 0.5, 1
            ), f"repro: value {event.attributes!r}"

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_every_decoded_map_redecodes_from_its_span(self, seed):
        repro = f"repro: test_every_decoded_map_redecodes_from_its_span(seed={seed})"
        rng = SeededRNG(seed)
        events = [splice_event(rng, index) for index in range(20)]
        wide = {f"k{index}": {"n": index} for index in range(70000)}  # map32
        frames = [
            wire.publish_many_frame(events, 3, 1.5),
            wire.forward_batch_frame([(event, 1, 1.5) for event in events]),
            encode_frame("ack", 1, {"data": {f"k{i}": {"v": i} for i in range(16)}}),
            encode_frame("ack", 1, {"data": wide}),
        ]
        widths = set()
        for frame in frames:
            for mapping in spans_of(receive(frame).body):
                assert type(mapping) is SpanMap, repro
                span = mapping.packed().data
                widths.add(span[0] if span[0] >= 0xDE else 0x80)
                again = unpackb(span)
                assert again == mapping and list(again) == list(mapping), repro
                assert packb(mapping) == span, repro  # canonical writer here
        assert widths == {0x80, 0xDE, 0xDF}, repro

    def test_span_of_non_canonical_map_headers(self):
        # The same two-entry map under each header width a peer may choose.
        entries = packb("a") + packb(1) + packb("b") + b"\x81" + packb("c") + packb(2)
        for header in (b"\x82", b"\xde\x00\x02", b"\xdf\x00\x00\x00\x02"):
            outer = unpackb(b"\x92" + header + entries + b"\xc0")
            decoded = outer[0]
            assert decoded == {"a": 1, "b": {"c": 2}} and outer[1] is None
            assert decoded.packed().data == header + entries
            assert decoded["b"].packed().data == b"\x81" + packb("c") + packb(2)

    def test_span_is_copied_out_of_the_frame(self):
        event = Event("e", {"k": "v"}, event_id="e1")
        (payload,) = FrameDecoder().feed(wire.publish_frame(event, 1, 0.0))
        decoded = decode_event(decode_payload(payload).body["event"])
        span = encode_event(decoded).data
        assert type(span) is bytes and span == packb(encode_event(event))
        assert span is not payload and len(span) < len(payload)

    def test_foreign_encoding_is_forwarded_verbatim_and_delivered_equal(self):
        def assert_canonical(event, where):
            assert event == CANONICAL_EVENT, where
            assert event.event_id == "evt-x" and event.event_type == "news.story", where
            assert type(event.timestamp) is float and event.timestamp == 3.0, where
            assert dict(event.attributes) == {"topic": "ai", "priority": 7, "score": 0.5}

        publish = raw_frame(
            "publish", 4,
            b"\x82" + packb("event") + FOREIGN_EVENT + packb("ots") + packb(2),
        )
        message = receive(publish)
        ingress = decode_event(message.body["event"])
        assert_canonical(ingress, "ingress")
        ots = wire.decode_origin_ts(message.body["ots"])
        assert type(ots) is float

        forward = wire.forward_frame(ingress, 1, ots)
        assert FOREIGN_EVENT in forward  # verbatim, not normalised
        transit = decode_event(receive(forward).body["event"])
        assert_canonical(transit, "transit")

        batch = wire.forward_batch_frame([(transit, 2, ots), (ingress, 2, ots)])
        assert batch.count(FOREIGN_EVENT) == 2
        arrived = []
        for member in receive(batch).body["members"]:
            egress = decode_event(member[0])
            assert_canonical(egress, "egress")
            arrived.append(egress)
            push = wire.event_frame(egress, ["s1"], ots, 3)
            assert FOREIGN_EVENT in push
            assert_canonical(decode_event(receive(push).body["event"]), "subscriber")

        pushed = wire.event_batch_frame([(egress, ["s1"], ots, 3) for egress in arrived])
        assert pushed.count(FOREIGN_EVENT) == 2
        assert deliveries_of(pushed) == [(CANONICAL_EVENT, "evt-x", ("s1",), ots, 3)] * 2
        for event, *_rest in deliveries_of(pushed):
            assert_canonical(event, "batched subscriber")

    def test_foreign_list_valued_attribute_rejected_at_first_hop(self):
        bad = (
            b"\x84" + packb("t") + packb("e") + packb("id") + packb("e1")
            + packb("ts") + packb(0.0)
            + packb("a") + b"\x81" + packb("k") + b"\x91\x01"
        )
        body = receive(raw_frame("publish", 1, b"\x81" + packb("event") + bad)).body
        with pytest.raises(ProtocolError) as exc:
            decode_event(body["event"])  # no Event, so nothing to forward
        assert exc.value.code == "bad_event"
        members = receive(
            raw_frame("forward_batch", 0,
                      b"\x81" + packb("members") + b"\x91\x93" + bad + b"\x01\x00")
        ).body["members"]
        with pytest.raises(ProtocolError):
            decode_event(members[0][0])

    def test_bytes_are_never_taken_for_a_splice(self):
        encoded_map = packb({"t": "e", "id": "x"})
        assert packb(encoded_map) == b"\xc4" + bytes([len(encoded_map)]) + encoded_map
        assert packb(bytearray(encoded_map)) == packb(encoded_map)
        assert unpackb(packb({"event": encoded_map})) == {"event": encoded_map}
        # Only an event decoded from a frame carries a splice ...
        local = Event("e", {"k": 1}, event_id="e1")
        assert type(encode_event(local)) is dict
        assert type(encode_event(decode_event(encode_event(local)))) is dict
        spliced = encode_event(decode_event(unpackb(packb(encode_event(local)))))
        assert type(spliced) is Packed and spliced.data == packb(encode_event(local))
        # ... and derived events are local again.
        derived = decode_event(unpackb(packb(encode_event(local)))).with_attributes(k=2)
        assert type(encode_event(derived)) is dict


# ---------------------------------------------------------------------------
# Batched delivery push: frame selection and the size cut
# ---------------------------------------------------------------------------


class TestEventPushFrames:
    @staticmethod
    def members(count, ids=("s1", "s2")):
        """``count`` members whose events came off a socket (so they carry
        their bytes, as every event a broker routes does)."""
        events = [Event("e", {"n": index}, event_id=f"e{index}") for index in range(count)]
        body = receive(wire.publish_many_frame(events, 1, 0.5)).body
        return [(decode_event(item), list(ids), 0.5, 1) for item in body["events"]]

    def test_one_member_is_an_event_frame_two_are_a_batch(self):
        one, two = self.members(1), self.members(2)
        assert wire.event_push_frames(one) == [wire.event_frame(*one[0])]
        assert wire.event_push_frames(two) == [wire.event_batch_frame(two)]
        assert receive(wire.event_batch_frame(two)).msg_type == "event_batch"
        assert wire.event_push_frames([]) == []

    @pytest.mark.parametrize("limit", [1, 40, 100, 1000])
    def test_size_cut_keeps_order_and_content(self, monkeypatch, limit):
        members = self.members(23)
        whole = deliveries_of(wire.event_batch_frame(members))
        monkeypatch.setattr(wire, "EVENT_BATCH_BYTES", limit)
        frames = wire.event_push_frames(members)
        assert deliveries_of(*frames) == whole, f"limit {limit}"
        weights = [len(encode_event(m[0]).data) + 4 for m in members]
        assert len(frames) > 1 if limit < sum(weights) else len(frames) == 1
        if limit <= min(weights):  # every chunk is one member: event frames
            assert frames == [wire.event_frame(*member) for member in members]
        # No frame holds more than the limit plus the member that crossed it.
        for frame in frames:
            body = receive(frame).body
            held = len(body["members"]) if "members" in body else 1
            assert (held - 1) * min(weights) < limit, f"limit {limit}"

    def test_locally_built_events_weigh_their_ids(self, monkeypatch):
        local = [(Event("e", {"n": index}, event_id=f"e{index}"), ["s1"], 0.5, 0)
                 for index in range(6)]
        monkeypatch.setattr(wire, "EVENT_BATCH_BYTES", 4)  # two ids of two chars
        frames = wire.event_push_frames(local)
        assert [len(receive(frame).body["members"]) for frame in frames] == [2, 2, 2]
        assert deliveries_of(*frames) == [
            (event, event.event_id, ("s1",), 0.5, 0) for event, *_rest in local
        ]
