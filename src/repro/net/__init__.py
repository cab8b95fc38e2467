"""Wire transport: a real network face for the broker fabric.

Everything before this package ran on the simulated clock inside one
process — throughput and latency numbers were *modeled*.  ``repro.net``
gives the same routing fabric an asyncio TCP face so they can be
*measured*:

* :mod:`repro.net.msgpack_lite` — the transport's one codec: a
  dependency-free msgpack implementation (spec-exact for the types the
  protocol uses) whose decoded maps remember their bytes, so brokers
  forward an event's original encoding instead of rebuilding it;
* :mod:`repro.net.wire` — the typed message protocol: length-prefixed
  frames with a protocol version byte, request ids for acks, and a pure
  codec layer round-tripping ``Subscription`` / ``FilterExpr`` / event IR;
* :mod:`repro.net.server` — :class:`~repro.net.server.BrokerServer`, an
  asyncio TCP server hosting a :class:`~repro.pubsub.broker.Broker`
  routing node: client sessions (subscribe/publish/deliver) and
  broker-to-broker links (subscription propagation + event forwarding)
  ride the same framing, with per-connection write backpressure and
  graceful drain;
* :mod:`repro.net.client` — the async client SDK:
  :func:`~repro.net.client.connect`, awaitable subscribe/publish,
  an async-iterator event stream, request/ack correlation, and
  reconnect-with-resubscribe;
* :mod:`repro.net.launcher` — :class:`~repro.net.launcher.WireCluster`,
  materializing the C1/C2 topology shapes (line/star/tree/ring/mesh) as
  real OS processes wired over localhost TCP, with ``kill``/``restart``
  for SIGKILL churn testing.

The sim-clock :class:`~repro.cluster.broker_cluster.BrokerCluster` stays
the deterministic twin: the wire path is pinned delivery-identical to it
(and to the single-engine oracle) by ``tests/net/test_wire_oracle.py``
and the CI wire-oracle job.
"""

from repro.net.client import BrokerClient, ReconnectBackoff, connect
from repro.net.launcher import BrokerSpec, WireCluster, topology_specs
from repro.net.server import BrokerServer
from repro.net.wire import (
    WIRE_VERSION,
    FrameDecoder,
    Message,
    WireError,
    decode_event,
    decode_filter_expr,
    decode_subscription,
    encode_event,
    encode_filter_expr,
    encode_frame,
    encode_subscription,
)

__all__ = [
    "BrokerClient",
    "BrokerServer",
    "BrokerSpec",
    "FrameDecoder",
    "Message",
    "ReconnectBackoff",
    "WIRE_VERSION",
    "WireCluster",
    "WireError",
    "connect",
    "decode_event",
    "decode_filter_expr",
    "decode_subscription",
    "encode_event",
    "encode_filter_expr",
    "encode_frame",
    "encode_subscription",
    "topology_specs",
]
