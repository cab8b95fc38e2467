"""Integration tests: asyncio BrokerServer + async client SDK, in process.

Everything here runs server and clients in one event loop (no
subprocesses — the multi-process path is ``test_wire_oracle.py``), driven
through ``asyncio.run`` from sync test functions since the environment has
no pytest-asyncio.
"""

import asyncio
import struct

import pytest

from repro.net import wire
from repro.net.client import BrokerReplyError, connect
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

        async def fake_broker(reader, writer):
            decoder = wire.FrameDecoder()
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for payload in decoder.feed(data):
                    message = wire.decode_payload(payload)
                    writer.write(
                        wire.ack_frame(message.request_id, data={"broker": "fake"})
                    )
                    if message.msg_type == "hello":
                        writer.write(b"".join(pushes))
                await writer.drain()
            writer.close()

        async def wrapper():
            listener = await asyncio.start_server(fake_broker, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            client = await connect("127.0.0.1", port, name="s", reconnect=False)
            try:
                delivery = await client.next_event(timeout=5)
                assert delivery is not None, "read loop died on a malformed push"
                assert delivery.event == good
                assert delivery.subscription_ids == ("s1",)
                assert (delivery.origin_ts, delivery.hops) == (2.5, 1)
                # Still a working session: requests are answered.
                assert (await client.stats())["broker"] == "fake"
            finally:
                await client.close()
                listener.close()
                await listener.wait_closed()

        asyncio.run(asyncio.wait_for(wrapper(), timeout=30))


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
            brokers = []
            for name in ("b2", "b1", "b0"):
                dial = {b.name: ("127.0.0.1", b.port) for b in brokers[-1:]}
                brokers.append(BrokerServer(name, port=0, dial=dial))
                await brokers[-1].start()
            subscriber = await connect("127.0.0.1", brokers[0].port, name="s")
            publisher = await connect("127.0.0.1", brokers[2].port, name="p")
            try:
                await subscriber.subscribe(sub("ai", subscriber="s"))
                for _ in range(500):
                    if brokers[2].node.routing_table_size():
                        break
                    await asyncio.sleep(0.01)
                await publisher.publish_many(events[:32])  # forward_batch path
                for event in events[32:]:  # forward path
                    await publisher.publish(event)
                delivered = [await subscriber.next_event(timeout=5) for _ in events]
            finally:
                await publisher.close()
                await subscriber.close()
                for broker in brokers:
                    await broker.shutdown(drain=False)
            return delivered

        delivered = asyncio.run(asyncio.wait_for(wrapper(), timeout=30))
        assert [d.event for d in delivered] == events
        assert {d.hops for d in delivered} == {2}
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
