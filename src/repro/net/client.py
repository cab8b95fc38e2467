"""Async client SDK for the wire transport.

:func:`connect` opens a TCP session to a :class:`~repro.net.server.BrokerServer`
and returns a :class:`BrokerClient`:

* **awaitable requests** — :meth:`~BrokerClient.subscribe`,
  :meth:`~BrokerClient.publish`, … send a framed request carrying a fresh
  request id and await the broker's ``ack`` (request/ack correlation via a
  pending-future table);
* **event stream** — deliveries pushed by the broker surface as an async
  iterator (``async for delivery in client.events()``), each a
  :class:`Delivery` with the event, the matched subscription ids this
  session owns, and the publisher's origin timestamp (so callers can
  measure end-to-end latency);
* **reconnect with resubscribe** — when the connection drops and
  ``reconnect=True``, the client re-dials under a configurable
  :class:`ReconnectBackoff` policy (exponential with a cap and
  decorrelating jitter, so a restarted broker is not greeted by every
  client at the same instant) and replays every subscription it holds
  (``subscribe_many``), so a broker restart — even a SIGKILL — is a
  pause, not a loss of subscription state.  Requests in flight across
  the drop fail with :class:`ConnectionError`; the event iterator keeps
  going.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net import wire
from repro.net.wire import FrameError, ProtocolError
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Subscription


@dataclass(frozen=True)
class ReconnectBackoff:
    """Retry pacing for dial/reconnect attempts.

    Delay for attempt *n* (1-based) is
    ``min(initial * multiplier**(n-1), max_delay)``, then scaled by a
    uniform factor in ``[1 - jitter, 1 + jitter]`` so a fleet of clients
    reconnecting to a restarted broker spreads out instead of
    thundering in lockstep.  ``max_attempts`` bounds the whole dial;
    ``jitter=0`` makes the schedule deterministic (tests)."""

    initial: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.1
    max_attempts: int = 60

    def __post_init__(self) -> None:
        if self.initial <= 0:
            raise ValueError("initial delay must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if self.max_delay < self.initial:
            raise ValueError("max_delay must be at least the initial delay")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def delay_for(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """The sleep before retrying after failed attempt ``attempt``."""
        if attempt < 1:
            raise ValueError("attempt numbering is 1-based")
        base = min(self.initial * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter == 0.0:
            return base
        spread = (rng.uniform if rng is not None else random.uniform)(
            1.0 - self.jitter, 1.0 + self.jitter
        )
        return base * spread


class BrokerReplyError(RuntimeError):
    """The broker answered a request with a failure ack or error frame."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class Delivery:
    """One event pushed to this session.

    ``origin_ts`` is the publisher-side ``time.monotonic()`` stamp carried
    end to end (0.0 when the publisher did not stamp); ``received_at`` is
    this process's monotonic receive time, so ``received_at - origin_ts``
    is measured end-to-end latency when publisher and subscriber share a
    clock (same host, as in the launcher's localhost topologies).  It is
    read once per push frame: the members of an ``event_batch`` arrived in
    the same bytes and share one stamp.
    """

    event: Event
    subscription_ids: Tuple[str, ...]
    origin_ts: float
    hops: int
    received_at: float


@dataclass
class _PendingTable:
    futures: Dict[int, "asyncio.Future[Any]"] = field(default_factory=dict)
    next_id: int = 1

    def issue(self) -> Tuple[int, "asyncio.Future[Any]"]:
        request_id = self.next_id
        self.next_id += 1
        future: "asyncio.Future[Any]" = asyncio.get_running_loop().create_future()
        self.futures[request_id] = future
        return request_id, future

    def resolve(self, request_id: int, result: Any) -> None:
        future = self.futures.pop(request_id, None)
        if future is not None and not future.done():
            future.set_result(result)

    def reject(self, request_id: int, error: BaseException) -> None:
        future = self.futures.pop(request_id, None)
        if future is not None and not future.done():
            future.set_exception(error)

    def reject_all(self, error: BaseException) -> None:
        for request_id in list(self.futures):
            self.reject(request_id, error)


class BrokerClient:
    """One client session against a wire broker.  Use :func:`connect`."""

    def __init__(
        self,
        host: str,
        port: int,
        name: str = "client",
        reconnect: bool = True,
        event_queue_limit: int = 4096,
        reconnect_backoff: Optional[ReconnectBackoff] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name
        self.reconnect = reconnect
        self.reconnect_backoff = (
            reconnect_backoff if reconnect_backoff is not None else ReconnectBackoff()
        )
        self._backoff_rng = random.Random()
        self.broker_name: Optional[str] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending = _PendingTable()
        self._events: "asyncio.Queue[Optional[Delivery]]" = asyncio.Queue(
            maxsize=event_queue_limit
        )
        self._subscriptions: Dict[str, Subscription] = {}
        self._closed = False
        self._connected = asyncio.Event()
        self._send_lock = asyncio.Lock()

    # -- connection lifecycle ----------------------------------------------

    async def _dial(self, max_attempts: Optional[int] = None) -> None:
        """Open the socket and complete the hello handshake, retrying
        under the session's :class:`ReconnectBackoff` policy — servers
        may still be binding when the launcher starts clients, and a
        killed broker takes its restart time to come back."""
        policy = self.reconnect_backoff
        limit = max_attempts if max_attempts is not None else policy.max_attempts
        attempt = 0
        while True:
            attempt += 1
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
                break
            except OSError:
                if self._closed or attempt >= limit:
                    raise
                await asyncio.sleep(policy.delay_for(attempt, self._backoff_rng))
        self._reader_task = asyncio.create_task(self._read_loop())
        reply = await self._request(
            lambda rid: wire.hello_frame("client", self.name, rid)
        )
        self.broker_name = (reply or {}).get("broker")
        if self._subscriptions:
            # Reconnect path: replay held subscriptions before anything else.
            held = list(self._subscriptions.values())
            await self._request(lambda rid: wire.subscribe_many_frame(held, rid))
        self._connected.set()

    async def _read_loop(self) -> None:
        assert self._reader is not None
        decoder = wire.FrameDecoder()
        try:
            while True:
                data = await self._reader.read(256 * 1024)
                if not data:
                    break
                for payload in decoder.feed(data):
                    self._handle_payload(payload)
        except (ConnectionError, OSError, FrameError):
            pass
        finally:
            self._connected.clear()
            self._pending.reject_all(ConnectionError("broker connection lost"))
            if self._closed or not self.reconnect:
                await self._events.put(None)
            else:
                asyncio.get_running_loop().create_task(self._reconnect())

    async def _reconnect(self) -> None:
        try:
            await self._dial()
        except OSError:
            if not self._closed:
                await self._events.put(None)

    def _handle_payload(self, payload: bytes) -> None:
        try:
            message = wire.decode_payload(payload)
        except ProtocolError:
            return
        if message.msg_type == "ack":
            body = message.body
            if body.get("ok", True):
                self._pending.resolve(message.request_id, body.get("data"))
            else:
                self._pending.reject(
                    message.request_id,
                    BrokerReplyError("nack", str(body.get("error"))),
                )
        elif message.msg_type == "event":
            body = message.body
            self._deliver([[
                body.get("event"), body.get("subs", []),
                body.get("ots", 0.0), body.get("hops", 0),
            ]])
        elif message.msg_type == "event_batch":
            members = message.body.get("members")
            if isinstance(members, list):
                self._deliver(members)
        elif message.msg_type == "error":
            request_id = message.request_id
            if request_id:
                self._pending.reject(
                    request_id,
                    BrokerReplyError(
                        str(message.body.get("code", "error")),
                        str(message.body.get("message", "")),
                    ),
                )
        # Anything else from the broker is ignored (forward compatibility).

    def _deliver(self, members: List[Any]) -> None:
        """Queue one push frame's ``[event, subs, ots, hops]`` members as
        deliveries.  A malformed member is skipped like an undecodable
        frame; the rest of the frame, the session and its read loop carry
        on."""
        received_at = time.monotonic()
        events = self._events
        for member in members:
            if not isinstance(member, list) or len(member) != 4:
                continue
            event, subscription_ids, origin_ts, hops = member
            if not isinstance(subscription_ids, list) or not all(
                type(subscription_id) is str for subscription_id in subscription_ids
            ):
                continue
            try:
                delivery = Delivery(
                    event=wire.decode_event(event),
                    subscription_ids=tuple(subscription_ids),
                    origin_ts=wire.decode_origin_ts(origin_ts),
                    hops=wire.decode_hops(hops),
                    received_at=received_at,
                )
            except ProtocolError:
                continue
            try:
                events.put_nowait(delivery)
            except asyncio.QueueFull:
                # The consumer is not draining; drop-oldest keeps the
                # session alive rather than deadlocking the read loop.
                try:
                    events.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - racy guard
                    pass
                events.put_nowait(delivery)

    async def _request(self, build_frame: Any, timeout: float = 30.0) -> Any:
        """Send ``build_frame(request_id)`` and await the correlated ack."""
        if self._writer is None:
            raise ConnectionError("client is not connected")
        request_id, future = self._pending.issue()
        try:
            frame = build_frame(request_id)
            async with self._send_lock:
                self._writer.write(frame)
                await self._writer.drain()
            return await asyncio.wait_for(future, timeout=timeout)
        finally:
            # A reply pops the entry itself; a timeout, a failed write or a
            # cancelled caller must not leave it behind.
            self._pending.futures.pop(request_id, None)

    # -- public API --------------------------------------------------------

    async def subscribe(self, subscription: Subscription) -> None:
        """Place a subscription; resolves once the broker acked it (local
        matching active; propagation to peers is in flight)."""
        self._subscriptions[subscription.subscription_id] = subscription
        await self._request(lambda rid: wire.subscribe_frame(subscription, rid))

    async def subscribe_many(self, subscriptions: Sequence[Subscription]) -> int:
        batch = list(subscriptions)
        for subscription in batch:
            self._subscriptions[subscription.subscription_id] = subscription
        reply = await self._request(
            lambda rid: wire.subscribe_many_frame(batch, rid)
        )
        return int((reply or {}).get("count", len(batch)))

    async def unsubscribe(self, subscription_id: str) -> bool:
        self._subscriptions.pop(subscription_id, None)
        reply = await self._request(
            lambda rid: wire.unsubscribe_frame(subscription_id, rid)
        )
        return bool((reply or {}).get("removed", False))

    async def publish(self, event: Event, origin_ts: Optional[float] = None) -> int:
        """Publish one event; returns the ingress broker's local match count."""
        stamp = time.monotonic() if origin_ts is None else origin_ts
        reply = await self._request(
            lambda rid: wire.publish_frame(event, rid, origin_ts=stamp)
        )
        return int((reply or {}).get("matched", 0))

    async def publish_many(
        self, events: Sequence[Event], origin_ts: Optional[float] = None
    ) -> int:
        stamp = time.monotonic() if origin_ts is None else origin_ts
        batch = list(events)
        reply = await self._request(
            lambda rid: wire.publish_many_frame(batch, rid, origin_ts=stamp)
        )
        return int((reply or {}).get("matched", 0))

    async def stats(self) -> Dict[str, Any]:
        """Server-side snapshot: broker name, table sizes, live metrics."""
        reply = await self._request(wire.stats_frame)
        return dict(reply or {})

    async def drain(self) -> None:
        """Ask the broker to drain and shut down (acked before it stops)."""
        await self._request(wire.drain_frame)

    async def next_event(self, timeout: Optional[float] = None) -> Optional[Delivery]:
        """Await the next delivery; ``None`` when the stream closed (or on
        timeout, when one is given)."""
        if timeout is None:
            return await self._events.get()
        try:
            return await asyncio.wait_for(self._events.get(), timeout=timeout)
        except asyncio.TimeoutError:
            return None

    async def events(self):
        """Async iterator over deliveries until the connection closes."""
        while True:
            delivery = await self._events.get()
            if delivery is None:
                return
            yield delivery

    async def close(self) -> None:
        self._closed = True
        self._pending.reject_all(ConnectionError("client closed"))
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._reader_task is not None:
            try:
                await asyncio.wait_for(self._reader_task, timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - stuck socket
                self._reader_task.cancel()

    async def __aenter__(self) -> "BrokerClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    @property
    def subscriptions(self) -> List[Subscription]:
        """Subscriptions this client holds (replayed on reconnect)."""
        return list(self._subscriptions.values())


async def connect(
    host: str,
    port: int,
    name: str = "client",
    reconnect: bool = True,
    reconnect_backoff: Optional[ReconnectBackoff] = None,
) -> BrokerClient:
    """Open a client session: dial, handshake, start the read loop."""
    client = BrokerClient(
        host, port, name=name, reconnect=reconnect,
        reconnect_backoff=reconnect_backoff,
    )
    await client._dial()
    return client
