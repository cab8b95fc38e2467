"""Asyncio broker server: the routing fabric behind a TCP listener.

A :class:`BrokerServer` hosts one :class:`~repro.pubsub.broker.Broker`
routing node (the same local-engine + per-neighbour remote-engine node the
sim-clock cluster drives) behind ``asyncio.start_server``.  Two kinds of
connection speak the same frame protocol (:mod:`repro.net.wire`):

* **client sessions** — ``hello`` with role ``client``, then
  subscribe/unsubscribe/publish requests (each acked by request id) and
  delivery pushes: everything one routing cycle (one ``publish`` /
  ``publish_many`` / ``forward`` / ``forward_batch`` served) owes a
  session leaves as one frame — ``event`` when that is a single event,
  ``event_batch`` otherwise — each member carrying every matched
  subscription id the session owns;
* **broker links** — ``hello`` with role ``broker``.  Subscription
  advertisements (``subscribe``/``subscribe_many``/``unsubscribe``) and
  event forwards (``forward``/``forward_batch``) ride the same framing.
  Links are dialed by the lower endpoint of each topology edge (the
  launcher assigns dial lists); on (re-)establishment each side pushes a
  full advertisement snapshot, so late or flapped links converge to the
  same routing state a fresh topology build would hold.

Subscription advertisements are propagated *unpruned* with split-horizon
flooding (every broker learns every remote subscription through the
neighbour it is reachable via).  On the acyclic topologies the launcher
builds this is delivery-identical to the sim fabric's covering-pruned
routes — covering only shrinks routing state, never the delivery set —
and it keeps wire retraction trivially correct.  Event forwarding reuses
``Broker.interested_neighbours`` (the cached ``matches_any`` probe over
per-neighbour remote engines) unchanged.

Backpressure is per connection: every session/link writes through a
bounded outbound queue drained by one writer task (``writer.drain()``
applies TCP backpressure); when the queue is full, the producing read
loop awaits, which in turn stops reading that producer's socket — a slow
subscriber slows its publishers instead of ballooning server memory.

Protocol errors (bad version byte, unknown message type, malformed
bodies) are *replies*, not disconnects: the offending frame is answered
with a typed ``error`` message and the connection keeps serving.  Only
framing corruption (an oversized length prefix) or EOF ends a session.
"""

from __future__ import annotations

import asyncio
import logging
import os
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cluster.durable import DurableLog
from repro.net import wire
from repro.net.wire import FrameError, Message, ProtocolError
from repro.pubsub.broker import Broker
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Subscription
from repro.sim.metrics import MetricsRegistry

logger = logging.getLogger("repro.net.server")

_READ_CHUNK = 256 * 1024
#: How long ``_Connection.close`` waits for the writer to flush and stop.
_CLOSE_TIMEOUT_S = 5.0


class _Connection:
    """One TCP connection: framed reads handled by the server's dispatch,
    framed writes through a bounded queue drained by a writer task."""

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        queue_limit: int,
        label: str = "?",
    ) -> None:
        self.writer = writer
        self.queue: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue(
            maxsize=queue_limit
        )
        self.role: Optional[str] = None
        self.name: str = label
        self.alive = True
        self.writer_task: Optional[asyncio.Task] = None

    def start_writer(self) -> None:
        self.writer_task = asyncio.create_task(self._write_loop())

    async def send(self, frame: bytes) -> None:
        """Enqueue a frame; awaits (backpressure) when the queue is full."""
        if not self.alive:
            return
        await self.queue.put(frame)

    async def _write_loop(self) -> None:
        try:
            while True:
                frame = await self.queue.get()
                if frame is None:
                    break
                self.writer.write(frame)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass
        finally:
            self.alive = False
            try:
                self.writer.close()
            except Exception:
                pass

    async def close(self, drain: bool = True) -> None:
        """Stop the writer (after flushing queued frames when ``drain``)."""
        if not drain:
            # Discard anything queued so the sentinel lands immediately.
            while not self.queue.empty():
                try:
                    self.queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - racy guard
                    break
        self.alive = False
        try:
            # One deadline over both waits: with the queue full and the
            # writer parked in ``drain()`` (a peer that stopped reading)
            # the sentinel itself cannot be enqueued.
            await asyncio.wait_for(self._stop_writer(), timeout=_CLOSE_TIMEOUT_S)
        except asyncio.TimeoutError:
            if self.writer_task is not None:
                self.writer_task.cancel()

    async def _stop_writer(self) -> None:
        await self.queue.put(None)
        if self.writer_task is not None:
            await self.writer_task


class BrokerServer:
    """One broker process: a routing node behind an asyncio TCP listener.

    Parameters
    ----------
    name:
        Broker name (also sent in ``hello`` on broker links).
    host/port:
        Listen address; port 0 binds an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    dial:
        ``{peer name: (host, port)}`` broker links this server initiates.
        The launcher assigns each topology edge to exactly one dialer;
        the other endpoint just accepts.
    queue_limit:
        Outbound frames buffered per connection before backpressure.
    """

    def __init__(
        self,
        name: str,
        host: str = "127.0.0.1",
        port: int = 0,
        dial: Optional[Dict[str, Tuple[str, int]]] = None,
        metrics: Optional[MetricsRegistry] = None,
        queue_limit: int = 1024,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.dial = dict(dial or {})
        self.node = Broker(name)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.queue_limit = queue_limit
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[_Connection] = set()
        self._links: Dict[str, _Connection] = {}
        self._sub_owner: Dict[str, _Connection] = {}
        self._conn_subs: Dict[_Connection, Set[str]] = {}
        self._dial_tasks: List[asyncio.Task] = []
        self._closed = asyncio.Event()
        self._draining = False
        # Optional crash-proof publish log: when REPRO_BROKER_EVENT_LOG_DIR
        # is set, every client publish is appended (and fsync-flushed) to
        # <dir>/<name>.events.log *before* routing, so a SIGKILL'd broker
        # leaves a replayable record of everything it accepted.
        self._event_log: Optional[DurableLog] = None
        log_dir = os.environ.get("REPRO_BROKER_EVENT_LOG_DIR")
        if log_dir:
            os.makedirs(log_dir, exist_ok=True)
            self._event_log = DurableLog(
                name, path=os.path.join(log_dir, f"{name}.events.log")
            )

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and begin dialing configured peer links."""
        self._server = await asyncio.start_server(
            self._on_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("broker %s listening on %s:%d", self.name, self.host, self.port)
        for peer, address in self.dial.items():
            self._dial_tasks.append(
                asyncio.create_task(self._dial_peer(peer, address))
            )

    async def serve_forever(self) -> None:
        await self._closed.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, flush outbound queues, close every connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._dial_tasks:
            task.cancel()
        for connection in list(self._connections):
            await connection.close(drain=drain)
        if self._event_log is not None:
            self._event_log.close()
        self._closed.set()

    # -- peer links --------------------------------------------------------

    async def _dial_peer(self, peer: str, address: Tuple[str, int]) -> None:
        """Keep one outbound broker link up (retry with backoff forever —
        a crashed peer is re-linked the moment it restarts)."""
        host, port = address
        backoff = 0.05
        while not self._closed.is_set():
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 1.0)
                continue
            backoff = 0.05
            connection = _Connection(writer, self.queue_limit, label=peer)
            connection.role = "broker"
            connection.name = peer
            connection.start_writer()
            self._connections.add(connection)
            await connection.send(wire.hello_frame("broker", self.name, 0))
            self._register_link(peer, connection)
            await self._send_advert_snapshot(connection)
            try:
                await self._read_loop(reader, connection)
            finally:
                await self._drop_connection(connection)
            # Fall through to re-dial unless shutting down.

    def _register_link(self, peer: str, connection: _Connection) -> None:
        previous = self._links.get(peer)
        if previous is not None and previous is not connection:
            previous.alive = False
        self._links[peer] = connection
        self.node.add_neighbour(peer)
        self.metrics.counter("net.links_established").increment()

    async def _send_advert_snapshot(self, connection: _Connection) -> None:
        """Advertise everything this broker knows (except routes learned
        *from* the target) as one snapshot batch; the receiver clears the
        link's remote engine first, so flapped links converge exactly."""
        peer = connection.name
        seen: Set[str] = set()
        snapshot: List[Subscription] = []
        for subscription in self.node.local_engine.subscriptions():
            if subscription.subscription_id not in seen:
                seen.add(subscription.subscription_id)
                snapshot.append(subscription)
        for neighbour, engine in self.node.remote_engines.items():
            if neighbour == peer:
                continue
            for subscription in engine.subscriptions():
                if subscription.subscription_id not in seen:
                    seen.add(subscription.subscription_id)
                    snapshot.append(subscription)
        body = {
            "subs": [wire.encode_subscription(s) for s in snapshot],
            "snapshot": True,
        }
        await connection.send(wire.encode_frame("subscribe_many", 0, body))

    async def _propagate(
        self, frame: bytes, exclude: Optional[_Connection]
    ) -> None:
        """Flood a control frame to every live broker link but the source."""
        for connection in list(self._links.values()):
            if connection is exclude or not connection.alive:
                continue
            await connection.send(frame)

    # -- connection handling -----------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer, self.queue_limit)
        connection.start_writer()
        self._connections.add(connection)
        try:
            await self._read_loop(reader, connection)
        finally:
            await self._drop_connection(connection)

    async def _drop_connection(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        if connection.role == "broker" and self._links.get(connection.name) is connection:
            del self._links[connection.name]
            self.metrics.counter("net.links_lost").increment()
        # A disconnected client's subscriptions stay active (durable
        # subscription storage, like the sim cluster's crash semantics);
        # deliveries for them are counted unroutable until it reconnects
        # and re-owns them by re-subscribing.
        for subscription_id in self._conn_subs.pop(connection, ()):
            if self._sub_owner.get(subscription_id) is connection:
                del self._sub_owner[subscription_id]
        await connection.close(drain=False)

    async def _read_loop(
        self, reader: asyncio.StreamReader, connection: _Connection
    ) -> None:
        decoder = wire.FrameDecoder()
        while True:
            try:
                data = await reader.read(_READ_CHUNK)
            except (ConnectionError, OSError):
                break
            if not data:
                break
            try:
                payloads = decoder.feed(data)
            except FrameError as error:
                logger.warning(
                    "%s: closing connection on framing corruption: %s",
                    self.name,
                    error,
                )
                self.metrics.counter("net.frame_errors").increment()
                break
            for payload in payloads:
                try:
                    message = wire.decode_payload(payload)
                except ProtocolError as error:
                    # Typed error reply; the connection survives.
                    self.metrics.counter("net.protocol_errors").increment()
                    await connection.send(wire.error_frame(error.code, str(error)))
                    continue
                try:
                    await self._dispatch(connection, message)
                except ProtocolError as error:
                    self.metrics.counter("net.protocol_errors").increment()
                    if message.request_id:
                        await connection.send(
                            wire.ack_frame(
                                message.request_id, ok=False, error=str(error)
                            )
                        )
                    else:
                        await connection.send(
                            wire.error_frame(error.code, str(error))
                        )

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, connection: _Connection, message: Message) -> None:
        msg_type = message.msg_type
        self.metrics.counter("net.frames_received").increment()
        if msg_type == "hello":
            await self._handle_hello(connection, message)
            return
        if connection.role is None:
            raise ProtocolError("first message must be hello", code="hello_required")
        if msg_type == "subscribe":
            await self._handle_subscribe(connection, message)
        elif msg_type == "subscribe_many":
            await self._handle_subscribe_many(connection, message)
        elif msg_type == "unsubscribe":
            await self._handle_unsubscribe(connection, message)
        elif msg_type == "publish":
            await self._handle_publish(connection, message)
        elif msg_type == "publish_many":
            await self._handle_publish_many(connection, message)
        elif msg_type == "forward":
            await self._handle_forward(connection, message)
        elif msg_type == "forward_batch":
            await self._handle_forward_batch(connection, message)
        elif msg_type == "stats":
            await self._handle_stats(connection, message)
        elif msg_type == "drain":
            await self._handle_drain(connection, message)
        elif msg_type == "ack":
            # Peers ack our hellos; nothing to correlate server-side.
            return
        else:
            raise ProtocolError(
                f"message type {msg_type!r} not valid here", code="unexpected_type"
            )

    async def _handle_hello(self, connection: _Connection, message: Message) -> None:
        role = message.body.get("role")
        name = message.body.get("name")
        version = message.body.get("version")
        if version != wire.WIRE_VERSION:
            raise ProtocolError(
                f"peer speaks protocol version {version!r}, "
                f"expected {wire.WIRE_VERSION}",
                code="bad_version",
            )
        if role not in ("client", "broker") or not isinstance(name, str) or not name:
            raise ProtocolError("hello requires role and name", code="bad_hello")
        connection.role = role
        connection.name = name
        if message.request_id:
            await connection.send(
                wire.ack_frame(message.request_id, data={"broker": self.name})
            )
        if role == "broker":
            self._register_link(name, connection)
            await self._send_advert_snapshot(connection)
        else:
            self.metrics.counter("net.client_sessions").increment()

    # -- subscription plane ------------------------------------------------

    def _apply_subscription(
        self, connection: _Connection, subscription: Subscription
    ) -> None:
        if connection.role == "client":
            self.node.subscribe_local(subscription)
            subscription_id = subscription.subscription_id
            previous = self._sub_owner.get(subscription_id)
            if previous is not None and previous is not connection:
                owned = self._conn_subs.get(previous)
                if owned is not None:
                    owned.discard(subscription_id)
            self._sub_owner[subscription_id] = connection
            self._conn_subs.setdefault(connection, set()).add(subscription_id)
        else:
            self.node.learn_remote(connection.name, subscription)
        self.metrics.counter("net.subscriptions_received").increment()

    async def _handle_subscribe(
        self, connection: _Connection, message: Message
    ) -> None:
        subscription = wire.decode_subscription(message.body.get("sub"))
        self._apply_subscription(connection, subscription)
        await self._propagate(
            wire.subscribe_frame(subscription, 0),
            exclude=connection if connection.role == "broker" else None,
        )
        if message.request_id:
            await connection.send(wire.ack_frame(message.request_id))

    async def _handle_subscribe_many(
        self, connection: _Connection, message: Message
    ) -> None:
        raw = message.body.get("subs")
        if not isinstance(raw, list):
            raise ProtocolError("subscribe_many requires a subs list",
                                code="bad_subscription")
        subscriptions = [wire.decode_subscription(item) for item in raw]
        if connection.role == "broker" and message.body.get("snapshot"):
            # Link (re-)establishment: replace everything learned via this
            # link so flapped links converge to the fresh-build state.
            self.node.clear_remote(connection.name)
        for subscription in subscriptions:
            self._apply_subscription(connection, subscription)
        if subscriptions:
            await self._propagate(
                wire.subscribe_many_frame(subscriptions, 0),
                exclude=connection if connection.role == "broker" else None,
            )
        if message.request_id:
            await connection.send(
                wire.ack_frame(message.request_id, data={"count": len(subscriptions)})
            )

    async def _handle_unsubscribe(
        self, connection: _Connection, message: Message
    ) -> None:
        subscription_id = message.body.get("id")
        if not isinstance(subscription_id, str) or not subscription_id:
            raise ProtocolError("unsubscribe requires a subscription id",
                                code="bad_unsubscribe")
        if connection.role == "client":
            removed = self.node.unsubscribe_local(subscription_id)
            owner = self._sub_owner.pop(subscription_id, None)
            if owner is not None:
                owned = self._conn_subs.get(owner)
                if owned is not None:
                    owned.discard(subscription_id)
        else:
            removed = self.node.forget_remote(connection.name, subscription_id)
        await self._propagate(
            wire.unsubscribe_frame(subscription_id, 0),
            exclude=connection if connection.role == "broker" else None,
        )
        if message.request_id:
            await connection.send(
                wire.ack_frame(message.request_id, data={"removed": removed})
            )

    # -- data plane --------------------------------------------------------

    async def _handle_publish(self, connection: _Connection, message: Message) -> None:
        if connection.role != "client":
            raise ProtocolError("publish is a client message (brokers forward)",
                                code="unexpected_type")
        event = wire.decode_event(message.body.get("event"))
        origin_ts = wire.decode_origin_ts(message.body.get("ots", 0.0))
        self.metrics.counter("net.events_published").increment()
        if self._event_log is not None:
            self._event_log.append(event, at=time.time())
        matched, forwarded = await self._route_events(
            [(event, 0, origin_ts)], came_from=None
        )
        if self._event_log is not None:
            self._event_log.mark_applied(event.event_id)
        if message.request_id:
            await connection.send(
                wire.ack_frame(
                    message.request_id,
                    data={"matched": matched, "forwarded": forwarded},
                )
            )

    async def _handle_publish_many(
        self, connection: _Connection, message: Message
    ) -> None:
        if connection.role != "client":
            raise ProtocolError("publish_many is a client message",
                                code="unexpected_type")
        raw = message.body.get("events")
        if not isinstance(raw, list):
            raise ProtocolError("publish_many requires an events list",
                                code="bad_event")
        events = [wire.decode_event(item) for item in raw]
        origin_ts = wire.decode_origin_ts(message.body.get("ots", 0.0))
        self.metrics.counter("net.events_published").increment(len(events))
        if self._event_log is not None:
            now = time.time()
            for event in events:
                self._event_log.append(event, at=now)
        matched, forwarded = await self._route_events(
            [(event, 0, origin_ts) for event in events], came_from=None
        )
        if self._event_log is not None:
            for event in events:
                self._event_log.mark_applied(event.event_id)
        if message.request_id:
            await connection.send(
                wire.ack_frame(
                    message.request_id,
                    data={
                        "count": len(events),
                        "matched": matched,
                        "forwarded": forwarded,
                    },
                )
            )

    async def _handle_forward(self, connection: _Connection, message: Message) -> None:
        if connection.role != "broker":
            raise ProtocolError("forward is a broker-link message",
                                code="unexpected_type")
        event = wire.decode_event(message.body.get("event"))
        hops = wire.decode_hops(message.body.get("hops", 1))
        origin_ts = wire.decode_origin_ts(message.body.get("ots", 0.0))
        self.metrics.counter("net.forwards_received").increment()
        await self._route_events(
            [(event, hops, origin_ts)], came_from=connection.name
        )

    async def _handle_forward_batch(
        self, connection: _Connection, message: Message
    ) -> None:
        if connection.role != "broker":
            raise ProtocolError("forward_batch is a broker-link message",
                                code="unexpected_type")
        raw = message.body.get("members")
        if not isinstance(raw, list):
            raise ProtocolError("forward_batch requires a members list",
                                code="bad_event")
        envelopes: List[Tuple[Event, int, float]] = []
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise ProtocolError("forward_batch member must be "
                                    "[event, hops, origin_ts]", code="bad_event")
            envelopes.append(
                (
                    wire.decode_event(item[0]),
                    wire.decode_hops(item[1]),
                    wire.decode_origin_ts(item[2]),
                )
            )
        self.metrics.counter("net.forwards_received").increment(len(envelopes))
        await self._route_events(envelopes, came_from=connection.name)

    async def _route_events(
        self,
        envelopes: List[Tuple[Event, int, float]],
        came_from: Optional[str],
    ) -> Tuple[int, int]:
        """Match, deliver to owning client sessions, forward to interested
        neighbour links (both coalesced: one frame per session and one per
        link for the whole cycle).  Returns (total local matches, total
        link-forwards staged)."""
        node = self.node
        events = [event for event, _hops, _ots in envelopes]
        if len(events) == 1:
            rows = [node.local_engine.match(events[0])]
        else:
            rows = node.local_engine.match_batch(events)
        deliveries = self.metrics.counter("net.deliveries")
        unroutable = self.metrics.counter("net.deliveries_unroutable")
        pushes: Dict[_Connection, List[Tuple[Event, List[str], float, int]]] = {}
        outboxes: Dict[str, List[Tuple[Event, int, float]]] = {}
        total_matched = 0
        for (event, hops, origin_ts), row in zip(envelopes, rows):
            total_matched += len(row)
            if row:
                per_session: Dict[_Connection, List[str]] = {}
                orphaned = 0
                for subscription in row:
                    owner = self._sub_owner.get(subscription.subscription_id)
                    if owner is None or not owner.alive:
                        orphaned += 1
                        continue
                    per_session.setdefault(owner, []).append(
                        subscription.subscription_id
                    )
                for session, subscription_ids in per_session.items():
                    pushes.setdefault(session, []).append(
                        (event, subscription_ids, origin_ts, hops)
                    )
                    deliveries.increment(len(subscription_ids))
                    node.stats.events_delivered += len(subscription_ids)
                if orphaned:
                    unroutable.increment(orphaned)
            for neighbour in node.interested_neighbours(event, exclude=came_from):
                outboxes.setdefault(neighbour, []).append(
                    (event, hops + 1, origin_ts)
                )
        for session, members in pushes.items():
            for frame in wire.event_push_frames(members):
                await session.send(frame)
        total_forwarded = 0
        if outboxes:
            forwarded = self.metrics.counter("net.events_forwarded")
            for neighbour, members in outboxes.items():
                link = self._links.get(neighbour)
                if link is None or not link.alive:
                    self.metrics.counter("net.forwards_dropped").increment(
                        len(members)
                    )
                    continue
                if len(members) == 1:
                    event, hops, origin_ts = members[0]
                    await link.send(wire.forward_frame(event, hops, origin_ts))
                else:
                    await link.send(wire.forward_batch_frame(members))
                forwarded.increment(len(members))
                total_forwarded += len(members)
                node.stats.events_forwarded += len(members)
        return total_matched, total_forwarded

    # -- admin -------------------------------------------------------------

    async def _handle_stats(self, connection: _Connection, message: Message) -> None:
        body = {
            "broker": self.name,
            "subscriptions": len(self.node.local_engine),
            "routing_table": self.node.routing_table_size(),
            "links": sorted(self._links),
            "metrics": self.metrics.snapshot(),
        }
        await connection.send(
            wire.ack_frame(message.request_id, data=_plain(body))
        )

    async def _handle_drain(self, connection: _Connection, message: Message) -> None:
        if message.request_id:
            await connection.send(wire.ack_frame(message.request_id))
        if not self._draining:
            self._draining = True
            asyncio.get_running_loop().create_task(self.shutdown(drain=True))


def _plain(value: Any) -> Any:
    """Msgpack-safe copy of a stats structure (tuples → lists, keys → str)."""
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
