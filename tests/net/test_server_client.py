"""Integration tests: asyncio BrokerServer + async client SDK, in process.

Everything here runs server and clients in one event loop (no
subprocesses — the multi-process path is ``test_wire_oracle.py``), driven
through ``asyncio.run`` from sync test functions since the environment has
no pytest-asyncio.
"""

import asyncio
import contextlib
import struct

import pytest

from repro.net import server as server_module
from repro.net import wire
from repro.net.client import BrokerClient, BrokerReplyError, connect
from repro.net.server import BrokerServer
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Operator, Predicate, Subscription


def sub(topic, subscriber="c", **extra):
    predicates = [Predicate("topic", Operator.EQ, topic)]
    for attribute, (operator, value) in extra.items():
        predicates.append(Predicate(attribute, operator, value))
    return Subscription(
        event_type="news.story", predicates=tuple(predicates), subscriber=subscriber
    )


def story(topic, **attributes):
    return Event("news.story", {"topic": topic, **attributes}, timestamp=1.0)


def run(coro_fn, timeout=30.0):
    async def wrapper():
        server = BrokerServer("b0", port=0)
        await server.start()
        try:
            await asyncio.wait_for(coro_fn(server), timeout=timeout)
        finally:
            await server.shutdown(drain=False)

    asyncio.run(wrapper())


@contextlib.asynccontextmanager
async def broker_line(placed):
    """b0 - b1 - b2 in this loop, a publisher session on b0 and a subscriber
    session on b2 holding ``placed``, advertised all the way to b0.  Yields
    ``(publisher, subscriber, pushed)``; ``pushed`` collects every frame the
    egress broker sends the subscriber session, in order."""
    brokers = []
    for name in ("b2", "b1", "b0"):
        dial = {b.name: ("127.0.0.1", b.port) for b in brokers[-1:]}
        brokers.append(BrokerServer(name, port=0, dial=dial))
        await brokers[-1].start()
    subscriber = await connect("127.0.0.1", brokers[0].port, name="s")
    publisher = await connect("127.0.0.1", brokers[2].port, name="p")
    pushed = []
    try:
        await subscriber.subscribe_many(placed)
        for _ in range(500):
            if brokers[2].node.routing_table_size() >= len(placed):
                break
            await asyncio.sleep(0.01)
        (session,) = set(brokers[0]._sub_owner.values())
        send = session.send

        async def recording(frame):
            pushed.append(frame)
            await send(frame)

        session.send = recording
        yield publisher, subscriber, pushed
    finally:
        await publisher.close()
        await subscriber.close()
        for broker in brokers:
            await broker.shutdown(drain=False)


def kinds(frames):
    """Message type of each frame, ``event_batch`` with its member count."""
    out = []
    for frame in frames:
        (payload,) = wire.FrameDecoder().feed(frame)
        message = wire.decode_payload(payload)
        members = message.body.get("members")
        out.append(message.msg_type if members is None else (message.msg_type, len(members)))
    return out


def delivered(delivery):
    """A delivery without its receive stamp."""
    return (
        delivery.event, delivery.event.event_id, delivery.subscription_ids,
        delivery.origin_ts, delivery.hops,
    )


class RawPeer:
    """A bare socket speaking frames — a foreign or outdated peer."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self._decoder = wire.FrameDecoder()
        self._inbox = []

    @classmethod
    async def open(cls, port):
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def send(self, *frames):
        self.writer.write(b"".join(frames))
        await self.writer.drain()

    async def read(self):
        """The next message (frames that arrived together queue up)."""
        while not self._inbox:
            data = await asyncio.wait_for(self.reader.read(65536), timeout=5)
            assert data, "server closed the connection"
            self._inbox.extend(self._decoder.feed(data))
        return wire.decode_payload(self._inbox.pop(0))

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


async def serve_fake_broker(on_hello, scenario, answers=lambda message: True):
    """Run ``scenario(client)`` against a listener that acks every request
    ``answers`` accepts as broker ``fake`` and writes ``on_hello`` (raw
    bytes) after the hello."""

    async def fake_broker(reader, writer):
        decoder = wire.FrameDecoder()
        while True:
            data = await reader.read(65536)
            if not data:
                break
            for payload in decoder.feed(data):
                message = wire.decode_payload(payload)
                if answers(message):
                    writer.write(
                        wire.ack_frame(message.request_id, data={"broker": "fake"})
                    )
                if message.msg_type == "hello":
                    writer.write(on_hello)
            await writer.drain()
        writer.close()

    listener = await asyncio.start_server(fake_broker, "127.0.0.1", 0)
    port = listener.sockets[0].getsockname()[1]
    client = await connect("127.0.0.1", port, name="s", reconnect=False)
    try:
        await scenario(client)
    finally:
        await client.close()
        listener.close()
        await listener.wait_closed()


class TestRequestReply:
    def test_subscribe_publish_deliver(self):
        async def scenario(server):
            async with await connect("127.0.0.1", server.port, name="s") as client:
                placed = sub("ai", subscriber="s")
                await client.subscribe(placed)
                assert await client.publish(story("ai")) == 1
                delivery = await client.next_event(timeout=5)
                assert delivery.event.attributes["topic"] == "ai"
                assert delivery.subscription_ids == (placed.subscription_id,)
                assert delivery.hops == 0

        run(scenario)

    def test_unsubscribe_stops_delivery(self):
        async def scenario(server):
            async with await connect("127.0.0.1", server.port, name="s") as client:
                placed = sub("ai", subscriber="s")
                await client.subscribe(placed)
                assert await client.unsubscribe(placed.subscription_id) is True
                assert await client.publish(story("ai")) == 0
                assert await client.next_event(timeout=0.2) is None

        run(scenario)

    def test_publish_many_acks_total_matches(self):
        async def scenario(server):
            async with await connect("127.0.0.1", server.port, name="s") as client:
                await client.subscribe(sub("ai", subscriber="s"))
                await client.subscribe(
                    sub("ai", subscriber="s", priority=(Operator.GE, 5))
                )
                events = [story("ai", priority=p) for p in (1, 7)] + [story("other")]
                # priority=1 matches one sub, priority=7 matches both.
                assert await client.publish_many(events) == 3
                got = []
                for _ in range(2):
                    got.append(await client.next_event(timeout=5))
                assert sum(len(d.subscription_ids) for d in got) == 3

        run(scenario)

    def test_concurrent_requests_correlate(self):
        async def scenario(server):
            async with await connect("127.0.0.1", server.port, name="s") as client:
                subs = [sub(f"t{i}", subscriber="s") for i in range(20)]
                await asyncio.gather(*(client.subscribe(s) for s in subs))
                stats = await client.stats()
                assert stats["subscriptions"] == 20

        run(scenario)

    def test_two_sessions_fan_out_by_ownership(self):
        async def scenario(server):
            alice = await connect("127.0.0.1", server.port, name="alice")
            bob = await connect("127.0.0.1", server.port, name="bob")
            try:
                sub_a = sub("ai", subscriber="alice")
                sub_b = sub("ai", subscriber="bob")
                await alice.subscribe(sub_a)
                await bob.subscribe(sub_b)
                assert await alice.publish(story("ai")) == 2
                delivery_a = await alice.next_event(timeout=5)
                delivery_b = await bob.next_event(timeout=5)
                assert delivery_a.subscription_ids == (sub_a.subscription_id,)
                assert delivery_b.subscription_ids == (sub_b.subscription_id,)
            finally:
                await alice.close()
                await bob.close()

        run(scenario)

    def test_stats_snapshot_shape(self):
        async def scenario(server):
            async with await connect("127.0.0.1", server.port, name="s") as client:
                stats = await client.stats()
                assert stats["broker"] == "b0"
                assert "metrics" in stats and "counters" in stats["metrics"]

        run(scenario)


class TestProtocolResilience:
    def test_malformed_frame_gets_error_reply_connection_survives(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            decoder = wire.FrameDecoder()

            async def read_message():
                while True:
                    data = await asyncio.wait_for(reader.read(65536), timeout=5)
                    assert data, "server closed the connection"
                    frames = decoder.feed(data)
                    if frames:
                        return wire.decode_payload(frames[0])

            writer.write(wire.hello_frame("client", "raw", 1))
            await writer.drain()
            assert (await read_message()).msg_type == "ack"

            # Garbage msgpack in a well-formed frame -> typed error reply.
            bad_payload = bytes([wire.WIRE_VERSION]) + b"\xc1\xc1\xc1"
            writer.write(struct.pack(">I", len(bad_payload)) + bad_payload)
            await writer.drain()
            message = await read_message()
            assert message.msg_type == "error"
            assert message.body["code"] == "bad_payload"

            # Wrong protocol version byte -> typed error reply.
            good = wire.stats_frame(7)
            forged = struct.pack(">I", len(good) - 4) + bytes([9]) + good[5:]
            writer.write(forged)
            await writer.drain()
            message = await read_message()
            assert message.msg_type == "error"
            assert message.body["code"] == "bad_version"

            # Unknown message type -> typed error reply.
            payload = bytes([wire.WIRE_VERSION]) + wire.packb(["warp", 3, {}])
            writer.write(struct.pack(">I", len(payload)) + payload)
            await writer.drain()
            message = await read_message()
            assert message.msg_type == "error"
            assert message.body["code"] == "unknown_type"

            # The connection still serves valid requests after all three.
            writer.write(wire.stats_frame(9))
            await writer.drain()
            message = await read_message()
            assert message.msg_type == "ack" and message.request_id == 9
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_request_before_hello_rejected(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(wire.stats_frame(1))
            await writer.drain()
            decoder = wire.FrameDecoder()
            data = await asyncio.wait_for(reader.read(65536), timeout=5)
            message = wire.decode_payload(decoder.feed(data)[0])
            assert message.msg_type == "ack" and message.body["ok"] is False
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_malformed_subscription_nacks_request(self):
        async def scenario(server):
            async with await connect("127.0.0.1", server.port, name="s") as client:
                with pytest.raises(BrokerReplyError):
                    await client._request(
                        lambda rid: wire.encode_frame(
                            "subscribe", rid, {"sub": {"t": "", "id": ""}}
                        )
                    )
                # Session still works.
                assert (await client.stats())["broker"] == "b0"

        run(scenario)


_EVENT_MAP = {"t": "news.story", "a": {"topic": "ai"}, "ts": 1.0, "id": "e-1"}

#: (connection role, message type, request id, body): well-framed messages
#: whose fields beside the event are ill-typed.
ILL_TYPED_DATA_PLANE = [
    ("client", "publish", 5, {"event": _EVENT_MAP, "ots": "abc"}),
    ("client", "publish", 0, {"event": _EVENT_MAP, "ots": "abc"}),
    ("client", "publish_many", 7, {"events": [_EVENT_MAP], "ots": [1.0]}),
    ("broker", "forward", 0, {"event": _EVENT_MAP, "hops": "x", "ots": 1.0}),
    ("broker", "forward", 0, {"event": _EVENT_MAP, "hops": 1, "ots": "abc"}),
    ("broker", "forward_batch", 0, {"members": [[_EVENT_MAP, None, 1.0]]}),
    ("broker", "forward_batch", 0, {"members": [[_EVENT_MAP, 1, "abc"]]}),
    ("broker", "forward_batch", 0,
     {"members": [[_EVENT_MAP, 1, 1.0], [_EVENT_MAP, True, 1.0]]}),
]


class TestIllTypedDataPlane:
    """A well-framed message with an ill-typed ``ots`` / ``hops`` is
    answered (nack with a request id, ``error`` frame without) and the
    connection — client session or broker link — keeps serving."""

    @pytest.mark.parametrize("role, msg_type, request_id, body", ILL_TYPED_DATA_PLANE)
    def test_typed_reply_and_connection_survives(
        self, role, msg_type, request_id, body
    ):
        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            decoder = wire.FrameDecoder()
            inbox = []

            async def read_reply():
                # Broker links are also sent an advertisement snapshot.
                while True:
                    while inbox:
                        message = inbox.pop(0)
                        if message.msg_type in ("ack", "error"):
                            return message
                    data = await asyncio.wait_for(reader.read(65536), timeout=5)
                    assert data, (
                        f"server closed the {role} connection on {msg_type} {body!r}"
                    )
                    inbox.extend(
                        wire.decode_payload(frame) for frame in decoder.feed(data)
                    )

            writer.write(wire.hello_frame(role, "raw", 1))
            await writer.drain()
            assert (await read_reply()).msg_type == "ack"

            writer.write(wire.encode_frame(msg_type, request_id, body))
            await writer.drain()
            reply = await read_reply()
            if request_id:
                assert reply.msg_type == "ack" and reply.request_id == request_id
                assert reply.body["ok"] is False, reply.body
            else:
                assert reply.msg_type == "error", reply
                assert reply.body["code"] == "bad_event", reply.body

            writer.write(wire.stats_frame(9))
            await writer.drain()
            reply = await read_reply()
            assert reply.msg_type == "ack" and reply.request_id == 9
            assert reply.body["data"]["broker"] == "b0"
            # Nothing from the rejected message was routed.
            assert reply.body["data"]["metrics"]["counters"].get(
                "net.deliveries", 0
            ) == 0
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_client_skips_malformed_event_push(self):
        """A broker pushing ill-formed ``event`` frames does not end the
        client's read loop: the frames are skipped, later ones delivered."""
        good = story("ai")
        pushes = [
            wire.encode_frame("event", 0, {"subs": ["s1"], "ots": 1.0, "hops": 0}),
            wire.encode_frame(
                "event", 0, {"event": {"t": "", "id": ""}, "subs": ["s1"]}
            ),
            wire.encode_frame(
                "event", 0, {"event": _EVENT_MAP, "subs": ["s1"], "ots": "abc"}
            ),
            wire.encode_frame(
                "event", 0, {"event": _EVENT_MAP, "subs": ["s1"], "hops": "x"}
            ),
            wire.encode_frame("event", 0, {"event": _EVENT_MAP, "subs": 5}),
            wire.event_frame(good, ["s1"], 2.5, 1),
        ]

        async def scenario(client):
            delivery = await client.next_event(timeout=5)
            assert delivery is not None, "read loop died on a malformed push"
            assert delivery.event == good
            assert delivery.subscription_ids == ("s1",)
            assert (delivery.origin_ts, delivery.hops) == (2.5, 1)
            # Still a working session: requests are answered.
            assert (await client.stats())["broker"] == "fake"

        asyncio.run(
            asyncio.wait_for(serve_fake_broker(b"".join(pushes), scenario), timeout=30)
        )


class TestEncodeOnce:
    def test_three_broker_line_encodes_each_event_once(self, monkeypatch):
        """b0 - b1 - b2, publisher on b0, subscriber on b2: only the
        publisher builds an event map; both forwards and the delivery push
        are spliced from the bytes each broker received."""
        built = {"map": 0, "spliced": 0}
        encode_event = wire.encode_event

        def counting(event):
            encoded = encode_event(event)
            built["map" if type(encoded) is dict else "spliced"] += 1
            return encoded

        monkeypatch.setattr(wire, "encode_event", counting)
        events = [story("ai", n=index) for index in range(37)]

        async def wrapper():
            async with broker_line([sub("ai", subscriber="s")]) as (
                publisher, subscriber, _pushed,
            ):
                await publisher.publish_many(events[:32])  # forward_batch path
                for event in events[32:]:  # forward path
                    await publisher.publish(event)
                return [await subscriber.next_event(timeout=5) for _ in events]

        arrived = asyncio.run(asyncio.wait_for(wrapper(), timeout=30))
        assert [d.event for d in arrived] == events
        assert {d.hops for d in arrived} == {2}
        assert built == {"map": len(events), "spliced": 3 * len(events)}


class TestReconnect:
    def test_reconnect_replays_subscriptions(self):
        async def wrapper():
            server = BrokerServer("b0", port=0)
            await server.start()
            port = server.port
            client = await connect("127.0.0.1", port, name="s", reconnect=True)
            placed = sub("ai", subscriber="s")
            await client.subscribe(placed)
            # Kill the server (drops the session), then restart on the
            # same port; the client must re-dial and re-subscribe.
            await server.shutdown(drain=False)
            server = BrokerServer("b0", host="127.0.0.1", port=port)
            await server.start()
            for _ in range(100):
                if len(server.node.local_engine):
                    break
                await asyncio.sleep(0.05)
            assert len(server.node.local_engine) == 1
            assert await client.publish(story("ai")) == 1
            delivery = await client.next_event(timeout=5)
            assert delivery.subscription_ids == (placed.subscription_id,)
            await client.close()
            await server.shutdown(drain=False)

        asyncio.run(asyncio.wait_for(wrapper(), timeout=30))

    def test_close_without_reconnect_ends_event_stream(self):
        async def wrapper():
            server = BrokerServer("b0", port=0)
            await server.start()
            client = await connect(
                "127.0.0.1", server.port, name="s", reconnect=False
            )
            await server.shutdown(drain=False)
            # Stream terminates rather than hanging.
            assert await asyncio.wait_for(client.next_event(), timeout=5) is None
            await client.close()

        asyncio.run(asyncio.wait_for(wrapper(), timeout=30))


class TestGracefulDrain:
    def test_drain_request_flushes_and_stops(self):
        async def wrapper():
            server = BrokerServer("b0", port=0)
            await server.start()
            client = await connect(
                "127.0.0.1", server.port, name="s", reconnect=False
            )
            placed = sub("ai", subscriber="s")
            await client.subscribe(placed)
            assert await client.publish(story("ai")) == 1
            await client.drain()
            await asyncio.wait_for(server.serve_forever(), timeout=10)
            # The delivery enqueued before the drain still arrived.
            delivery = await asyncio.wait_for(client.next_event(), timeout=5)
            assert delivery is not None
            assert delivery.subscription_ids == (placed.subscription_id,)
            await client.close()

        asyncio.run(asyncio.wait_for(wrapper(), timeout=30))


PLACED = [
    sub("ai", subscriber="s"),
    sub("ai", subscriber="s", priority=(Operator.GE, 5)),
    sub("db", subscriber="s"),
]


def mixed_events(count):
    """Topics cycle ai / db / none, priorities 0-9: zero, one or two of
    ``PLACED`` match each event."""
    return [
        Event(
            "news.story",
            {"topic": ("ai", "db", "none")[index % 3], "priority": index % 10},
            timestamp=1.0,
            event_id=f"e{index}",
        )
        for index in range(count)
    ]


class TestBatchedDeliveryPush:
    def test_publish_many_arrives_as_the_per_event_pushes_would(self):
        """One ``publish_many(32)`` crosses the line as one frame per hop —
        the last one an ``event_batch`` — and delivers what 32 ``publish``
        calls deliver, in their order."""
        events = mixed_events(32)
        matching = sum(1 for event in events if event.attributes["topic"] != "none")

        async def wrapper():
            async with broker_line(PLACED) as (publisher, subscriber, pushed):
                await publisher.publish_many(events, origin_ts=5.0)
                batched = [await subscriber.next_event(timeout=5) for _ in range(matching)]
                batched_frames = list(pushed)
                del pushed[:]
                for event in events:
                    await publisher.publish(event, origin_ts=5.0)
                single = [await subscriber.next_event(timeout=5) for _ in range(matching)]
                assert await subscriber.next_event(timeout=0.2) is None
                return batched, batched_frames, single, list(pushed)

        batched, batched_frames, single, single_frames = asyncio.run(
            asyncio.wait_for(wrapper(), timeout=30)
        )
        assert None not in batched and None not in single
        assert [delivered(d) for d in batched] == [delivered(d) for d in single]
        assert [d.event.event_id for d in batched] == [
            event.event_id for event in events if event.attributes["topic"] != "none"
        ]
        assert {len(d.subscription_ids) for d in batched} == {1, 2}
        assert kinds(batched_frames) == [("event_batch", matching)]
        assert kinds(single_frames) == ["event"] * matching
        # One frame, one receive stamp.
        assert len({d.received_at for d in batched}) == 1

    def test_one_event_cycle_sends_the_event_frame_unchanged(self):
        """A cycle that owes the session one delivery — a lone ``publish``,
        or a batch only one member of which matches — sends exactly
        ``wire.event_frame(...)``."""
        placed = sub("ai", subscriber="s")
        lone = story("ai", n=1)
        crowd = [story("none", n=index) for index in range(5)]
        crowd.insert(3, story("ai", n=99))

        async def wrapper():
            async with broker_line([placed]) as (publisher, subscriber, pushed):
                await publisher.publish(lone, origin_ts=7.5)
                await publisher.publish_many(crowd, origin_ts=8.5)
                got = [await subscriber.next_event(timeout=5) for _ in range(2)]
                return got, list(pushed)

        got, pushed = asyncio.run(asyncio.wait_for(wrapper(), timeout=30))
        ids = [placed.subscription_id]
        assert pushed == [
            wire.event_frame(lone, ids, 7.5, 2),
            wire.event_frame(crowd[3], ids, 8.5, 2),
        ]
        assert [d.event for d in got] == [lone, crowd[3]]

    def test_size_cut_keeps_order_and_content(self, monkeypatch):
        events = mixed_events(32)
        matching = sum(1 for event in events if event.attributes["topic"] != "none")

        async def wrapper(limit):
            monkeypatch.setattr(wire, "EVENT_BATCH_BYTES", limit)
            async with broker_line(PLACED) as (publisher, subscriber, pushed):
                await publisher.publish_many(events, origin_ts=5.0)
                got = [await subscriber.next_event(timeout=5) for _ in range(matching)]
                return [delivered(d) for d in got], kinds(pushed)

        whole, whole_kinds = asyncio.run(asyncio.wait_for(wrapper(1 << 20), timeout=30))
        assert whole_kinds == [("event_batch", matching)]
        cut, cut_kinds = asyncio.run(asyncio.wait_for(wrapper(300), timeout=30))
        assert cut == whole
        held = [1 if kind == "event" else kind[1] for kind in cut_kinds]
        assert len(held) > 2 and sum(held) == matching and max(held) < 8, cut_kinds
        each, each_kinds = asyncio.run(asyncio.wait_for(wrapper(1), timeout=30))
        assert each == whole and each_kinds == ["event"] * matching

    def test_counters_and_ack_count_per_subscription(self):
        """``net.deliveries`` / ``events_delivered`` / the ack's ``matched``
        count (event, subscription) pairs, batched or not; a subscription
        whose session is gone is unroutable, not delivered."""
        events = mixed_events(30)
        pairs = sum(
            {"ai": 1 + (event.attributes["priority"] >= 5), "db": 1, "none": 0}[
                event.attributes["topic"]
            ]
            for event in events
        )

        async def scenario(server):
            keeper = await connect("127.0.0.1", server.port, name="keeper")
            leaver = await connect("127.0.0.1", server.port, name="leaver", reconnect=False)
            try:
                await keeper.subscribe_many(PLACED[:2])
                await leaver.subscribe(PLACED[2])
                await leaver.close()
                for _ in range(200):
                    if len(server._connections) == 1:
                        break
                    await asyncio.sleep(0.01)
                assert await keeper.publish_many(events) == pairs
                counters = (await keeper.stats())["metrics"]["counters"]
                orphaned = sum(1 for e in events if e.attributes["topic"] == "db")
                assert counters["net.deliveries"] == pairs - orphaned
                assert counters["net.deliveries_unroutable"] == orphaned
                assert server.node.stats.events_delivered == pairs - orphaned
                got = [await keeper.next_event(timeout=5) for _ in range(10)]
                assert sum(len(d.subscription_ids) for d in got) == pairs - orphaned
            finally:
                await keeper.close()

        run(scenario)


GOOD_MEMBER = [_EVENT_MAP, ["s1"], 1.5, 2]
MALFORMED_MEMBERS = {
    "bad event map": [{"t": "", "id": ""}, ["s1"], 1.5, 2],
    "event not a map": ["tick", ["s1"], 1.5, 2],
    "ill-typed ots": [_EVENT_MAP, ["s1"], "abc", 2],
    "nil ots": [_EVENT_MAP, ["s1"], None, 2],
    "ill-typed hops": [_EVENT_MAP, ["s1"], 1.5, 2.0],
    "subs not a list": [_EVENT_MAP, "s1", 1.5, 2],
    "non-str id": [_EVENT_MAP, ["s1", 7], 1.5, 2],
    "too short": [_EVENT_MAP, ["s1"], 1.5],
    "too long": [_EVENT_MAP, ["s1"], 1.5, 2, 0],
    "not a list": {"event": _EVENT_MAP},
}


class TestMalformedBatchMembers:
    """The client validates each ``event_batch`` member as it validates an
    ``event`` push: a malformed member is skipped, its neighbours are
    delivered, the session keeps answering."""

    @pytest.mark.parametrize("what", sorted(MALFORMED_MEMBERS))
    def test_bad_member_is_skipped_the_rest_delivered(self, what):
        first = [dict(_EVENT_MAP, id="e-first"), ["s1", "s2"], 0.5, 1]
        last = [dict(_EVENT_MAP, id="e-last"), [], 2.5, 0]
        push = wire.encode_frame(
            "event_batch", 0, {"members": [first, MALFORMED_MEMBERS[what], last]}
        )

        async def scenario(client):
            got = [await client.next_event(timeout=5) for _ in range(2)]
            assert None not in got, f"{what}: a neighbour of the bad member was lost"
            assert [delivered(d)[1:] for d in got] == [
                ("e-first", ("s1", "s2"), 0.5, 1),
                ("e-last", (), 2.5, 0),
            ], what
            assert (await client.stats())["broker"] == "fake"
            assert await client.next_event(timeout=0.05) is None, what

        asyncio.run(asyncio.wait_for(serve_fake_broker(push, scenario), timeout=30))

    def test_non_list_members_skip_the_frame(self):
        pushes = [
            wire.encode_frame("event_batch", 0, {"members": {"0": GOOD_MEMBER}}),
            wire.encode_frame("event_batch", 0, {}),
            wire.encode_frame("event_batch", 0, {"members": []}),
            wire.encode_frame("event_batch", 0, {"members": [GOOD_MEMBER]}),
        ]

        async def scenario(client):
            delivery = await client.next_event(timeout=5)
            assert delivery is not None, "read loop died on a malformed batch"
            assert delivered(delivery)[1:] == ("e-1", ("s1",), 1.5, 2)
            assert await client.next_event(timeout=0.05) is None
            assert (await client.stats())["broker"] == "fake"

        asyncio.run(
            asyncio.wait_for(serve_fake_broker(b"".join(pushes), scenario), timeout=30)
        )

    def test_event_push_with_a_non_str_id_is_skipped_too(self):
        pushes = [
            wire.encode_frame("event", 0, {"event": _EVENT_MAP, "subs": ["s1", 7]}),
            wire.encode_frame("event", 0, {"event": dict(_EVENT_MAP, id="e-2")}),
        ]

        async def scenario(client):
            delivery = await client.next_event(timeout=5)
            # Absent subs / ots / hops keep their defaults.
            assert delivered(delivery)[1:] == ("e-2", (), 0.0, 0)
            assert await client.next_event(timeout=0.05) is None

        asyncio.run(
            asyncio.wait_for(serve_fake_broker(b"".join(pushes), scenario), timeout=30)
        )

    def test_full_queue_drops_oldest_member_by_member(self):
        members = [[dict(_EVENT_MAP, id=f"e-{n}"), ["s1"], 1.0, 0] for n in range(10)]
        push = wire.encode_frame("event_batch", 0, {"members": members})

        client = BrokerClient("127.0.0.1", 0, event_queue_limit=4)
        (payload,) = wire.FrameDecoder().feed(push)
        client._handle_payload(payload)
        kept = [client._events.get_nowait().event.event_id for _ in range(4)]
        assert kept == ["e-6", "e-7", "e-8", "e-9"]


class TestVersionBump:
    """``event_batch`` is a push an older client would silently ignore, so
    the version moved with it; both ends refuse the previous one."""

    OLD = wire.WIRE_VERSION - 1

    def test_hello_of_the_previous_version_is_nacked_connection_survives(self):
        async def scenario(server):
            peer = await RawPeer.open(server.port)
            await peer.send(
                wire.encode_frame(
                    "hello", 1, {"role": "client", "name": "old", "version": self.OLD}
                )
            )
            reply = await peer.read()
            assert reply.msg_type == "ack" and reply.request_id == 1
            assert reply.body["ok"] is False
            assert f"version {self.OLD}" in reply.body["error"], reply.body
            assert f"expected {wire.WIRE_VERSION}" in reply.body["error"], reply.body
            # Not a session: requests are still refused ...
            await peer.send(wire.stats_frame(2))
            reply = await peer.read()
            assert reply.request_id == 2 and reply.body["ok"] is False
            # ... until a hello of this version arrives on the same socket.
            await peer.send(wire.hello_frame("client", "new", 3), wire.stats_frame(4))
            reply = await peer.read()
            assert reply.request_id == 3 and reply.body["ok"] is True
            reply = await peer.read()
            assert reply.request_id == 4 and reply.body["data"]["broker"] == "b0"
            counters = reply.body["data"]["metrics"]["counters"]
            assert counters["net.client_sessions"] == 1
            await peer.close()

        run(scenario)

    def test_hello_without_a_request_id_gets_a_bad_version_error(self):
        async def scenario(server):
            peer = await RawPeer.open(server.port)
            await peer.send(
                wire.encode_frame(
                    "hello", 0, {"role": "broker", "name": "old", "version": self.OLD}
                )
            )
            reply = await peer.read()
            assert reply.msg_type == "error" and reply.body["code"] == "bad_version"
            assert server._links == {}
            await peer.close()

        run(scenario)

    def test_frame_stamped_with_the_previous_version_gets_bad_version(self):
        async def scenario(server):
            peer = await RawPeer.open(server.port)
            await peer.send(wire.hello_frame("client", "raw", 1))
            assert (await peer.read()).msg_type == "ack"
            good = wire.stats_frame(7)
            assert good[4] == wire.WIRE_VERSION
            await peer.send(good[:4] + bytes([self.OLD]) + good[5:])
            reply = await peer.read()
            assert reply.msg_type == "error" and reply.body["code"] == "bad_version"
            assert str(self.OLD) in reply.body["message"]
            await peer.send(good)
            reply = await peer.read()
            assert reply.msg_type == "ack" and reply.request_id == 7
            await peer.close()

        run(scenario)

    def test_client_skips_a_frame_of_the_previous_version(self):
        good = wire.event_frame(story("ai"), ["s1"], 2.5, 1)
        stale = good[:4] + bytes([self.OLD]) + good[5:]

        async def scenario(client):
            delivery = await client.next_event(timeout=5)
            assert delivery is not None and delivery.subscription_ids == ("s1",)
            assert await client.next_event(timeout=0.05) is None

        asyncio.run(asyncio.wait_for(serve_fake_broker(stale + good, scenario), timeout=30))


class TestStuckPeers:
    def test_drain_shutdown_returns_when_a_subscriber_stopped_reading(self, monkeypatch):
        """Queue full, writer parked in ``drain()``: the close sentinel
        cannot be enqueued, and ``shutdown(drain=True)`` must give up on
        that connection after the close deadline instead of hanging."""
        monkeypatch.setattr(server_module, "_CLOSE_TIMEOUT_S", 0.3, raising=False)
        big = Event("news.story", {"topic": "ai", "blob": "x" * 200_000}, timestamp=1.0)

        async def wrapper():
            server = BrokerServer("b0", port=0, queue_limit=4)
            await server.start()
            # A raw subscriber: hello + subscribe, then it never reads again.
            stuck = await RawPeer.open(server.port)
            placed = sub("ai", subscriber="stuck")
            await stuck.send(
                wire.hello_frame("client", "stuck", 1), wire.subscribe_frame(placed, 2)
            )
            for _ in range(500):
                if placed.subscription_id in server._sub_owner:
                    break
                await asyncio.sleep(0.01)
            session = server._sub_owner[placed.subscription_id]
            publisher = await connect("127.0.0.1", server.port, name="p", reconnect=False)

            async def flood():
                while True:
                    await publisher.publish(big)

            flooding = asyncio.create_task(flood())
            try:
                for _ in range(3000):
                    if session.queue.full():
                        break
                    await asyncio.sleep(0.01)
                assert session.queue.full(), "the subscriber's queue never filled"
                await asyncio.sleep(0.1)  # the routing put is now waiting as well
                assert session.queue.full()
                await asyncio.wait_for(server.shutdown(drain=True), timeout=10)
                assert session.writer_task.done()
            finally:
                flooding.cancel()
                await asyncio.gather(flooding, return_exceptions=True)
                await publisher.close()
                stuck.writer.close()

        asyncio.run(asyncio.wait_for(wrapper(), timeout=60))

    def test_timed_out_request_leaves_no_pending_entry(self):
        """A broker that stops acking must not grow the session's pending
        table by one entry per request."""

        async def scenario(client):
            for _ in range(3):
                with pytest.raises(asyncio.TimeoutError):
                    await client._request(wire.stats_frame, timeout=0.05)
            assert client._pending.futures == {}
            # A cancelled caller cleans up after itself as well.
            waiting = asyncio.create_task(client.stats())
            await asyncio.sleep(0.05)
            assert len(client._pending.futures) == 1
            waiting.cancel()
            await asyncio.gather(waiting, return_exceptions=True)
            assert client._pending.futures == {}

        def only_hello(message):
            return message.msg_type == "hello"

        asyncio.run(
            asyncio.wait_for(serve_fake_broker(b"", scenario, only_hello), timeout=30)
        )
