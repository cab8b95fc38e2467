"""Self-healing: heartbeat failure detection and routing convergence.

The fault injector (:mod:`repro.cluster.faults`) only breaks things at
the physical layer — processes die, links stop passing messages.  This
module is the control loop that notices and heals:

* :class:`FailureDetector` runs a periodic process on the cluster's sim
  clock.  Every ``period`` seconds each live broker sends a ``heartbeat``
  message to each intended neighbour through the simulated network (so
  heartbeats pay link latency and die on downed links or dead peers);
  each broker tracks when it last heard every neighbour.  Silence beyond
  ``timeout`` raises a *suspicion*: the overlay link is torn down via
  :meth:`BrokerCluster.fail_link`, which repairs routing state on both
  sides (covering-aware, see :meth:`RoutingFabric.disconnect`).  The
  first heartbeat to cross a torn-down link restores it
  (:meth:`BrokerCluster.restore_link`) and re-advertises the surviving
  subscription set, so routing converges back without a coordinator.

  Detection is *unreliable by design*: with ``timeout`` close to
  ``period`` plus link latency, a slow heartbeat can trigger a false
  suspicion against a healthy peer — the detector counts these
  (``detector.false_suspicions``, judged omnisciently from sim state)
  and the subsequent heartbeat heals the flap.  Tuning guidance lives in
  PERFORMANCE.md ("Failure & churn").

* :func:`rebuilt_routing_snapshot` / :func:`routing_converged` are the
  convergence oracle: the live fabric's routing state must equal that of
  a fabric freshly built on the surviving topology with the same
  subscription issue order.  The C2 experiment's ``--verify`` mode and
  the recovery property suite both assert through them.  (Since the
  control plane went incremental the oracle lives on the fabric itself —
  :meth:`RoutingFabric.rebuilt_snapshot` — and these remain the public
  convergence-checking entry points over it.)
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.cluster.routing import RoutingFabric


class FailureDetector:
    """Per-neighbour heartbeat monitoring driving link failover/failback.

    One detector instance serves the whole cluster (it is the cluster's
    single ``_detector``); conceptually each broker monitors only its own
    intended neighbours, and all state is keyed ``(listener, peer)``.
    """

    def __init__(
        self,
        cluster,
        period: float = 0.05,
        timeout: float = 0.2,
        heartbeat_bytes: int = 32,
    ) -> None:
        if period <= 0:
            raise ValueError("heartbeat period must be positive")
        if timeout <= period:
            raise ValueError("timeout must exceed the heartbeat period")
        self.cluster = cluster
        self.period = period
        self.timeout = timeout
        self.heartbeat_bytes = heartbeat_bytes
        self._last_heard: Dict[Tuple[str, str], float] = {}
        self._running = False
        self._tick_handle = None
        self._until: Optional[float] = None
        self.last_restore_time: Optional[float] = None
        self.last_suspicion_time: Optional[float] = None
        # One detector owns a cluster's heartbeat receipts; silently
        # replacing a *running* one would starve its _last_heard map and
        # make it tear down every healthy link after `timeout`.  A stopped
        # predecessor is fully detached (its lifecycle hook removed) so
        # cycling detectors does not accumulate dead observers.
        previous = cluster._detector
        if previous is not None:
            if previous._running:
                raise ValueError(
                    "cluster already has a running failure detector; stop() it first"
                )
            try:
                cluster._lifecycle_callbacks.remove(previous._on_lifecycle)
            except ValueError:
                pass
        cluster._detector = self
        cluster.on_lifecycle(self._on_lifecycle)

    # -- lifecycle ---------------------------------------------------------

    def start(self, until: Optional[float] = None) -> None:
        """Begin heartbeating at the current sim time.

        ``until`` bounds the periodic process so a run can drain; without
        it the detector ticks forever and the caller must use
        ``cluster.run(until=...)``.
        """
        if self._running:
            raise RuntimeError("failure detector already running")
        self._running = True
        self._until = until
        now = self.cluster.sim.now
        for listener, peer in self._directed_pairs():
            self._last_heard[(listener, peer)] = now
        self._tick_handle = self.cluster.sim.schedule_in(
            self.period, self._tick, label="detector.tick"
        )

    def stop(self) -> None:
        self._running = False
        # Cancel the pending tick so a later start() cannot leave two
        # concurrent tick chains heartbeating in parallel.
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    def _directed_pairs(self) -> Iterable[Tuple[str, str]]:
        # Sorted: heartbeat send order sets the order of same-time sim
        # events, and a set of strings iterates in string-hash order.
        pairs = sorted(sorted(pair) for pair in self.cluster.intended_links)
        for first, second in pairs:
            yield first, second
            yield second, first

    def _on_lifecycle(self, kind: str, broker_name: str, time: float) -> None:
        if kind != "recovered":
            return
        # The restarted broker's notion of "recently heard" must not be
        # its pre-crash memory, or it would instantly suspect everyone.
        for listener, peer in self._directed_pairs():
            if listener == broker_name:
                self._last_heard[(listener, peer)] = time

    # -- the periodic process ----------------------------------------------

    def _tick(self, _engine) -> None:
        if not self._running:
            return
        cluster = self.cluster
        now = cluster.sim.now
        for listener, peer in self._directed_pairs():
            # Heartbeat from `listener` toward `peer` (every broker is both
            # a sender and a listener; this loop visits each direction).
            sender = cluster.brokers[listener]
            if sender.up:
                cluster.network.send(
                    listener,
                    peer,
                    kind="heartbeat",
                    payload=None,
                    size_bytes=self.heartbeat_bytes,
                )
                cluster.metrics.counter("detector.heartbeats_sent").increment()
            # Links connected after start() default to "heard just now".
            last = self._last_heard.setdefault((listener, peer), now)
            if (
                sender.up
                and cluster.overlay_link_is_up(listener, peer)
                and now - last > self.timeout
            ):
                self._suspect(listener, peer, now)
        if self._until is None or now + self.period <= self._until:
            self._tick_handle = cluster.sim.schedule_in(
                self.period, self._tick, label="detector.tick"
            )
        else:
            self._running = False
            self._tick_handle = None

    def _suspect(self, listener: str, peer: str, now: float) -> None:
        cluster = self.cluster
        cluster.metrics.counter("detector.suspicions").increment()
        self.last_suspicion_time = now
        peer_alive = cluster.brokers[peer].up
        path_clear = cluster.network.link_is_up(peer, listener)
        if peer_alive and path_clear:
            # Omniscient accounting: the peer was fine, we were just slow.
            cluster.metrics.counter("detector.false_suspicions").increment()
        tracer = getattr(cluster, "tracer", None)
        if tracer is not None:
            tracer.note_anomaly(f"suspicion:{listener}->{peer}", now)
        cluster.fail_link(listener, peer)

    # -- heartbeat receipt (called by the broker port) -----------------------

    def heartbeat_received(self, listener: str, peer: str) -> None:
        cluster = self.cluster
        now = cluster.sim.now
        self._last_heard[(listener, peer)] = now
        if not cluster.overlay_link_is_up(listener, peer):
            if cluster.restore_link(listener, peer):
                cluster.metrics.counter("detector.link_restores").increment()
                self.last_restore_time = now


# -- convergence oracle ----------------------------------------------------


def rebuilt_routing_snapshot(
    fabric: RoutingFabric,
    edges: Optional[Iterable[Tuple[str, str]]] = None,
) -> Dict[str, Dict[str, Tuple[str, ...]]]:
    """Routing state of a fabric built from scratch on ``fabric``'s
    surviving topology (its current edges unless ``edges`` is given),
    subscribing the live set in its original issue order."""
    return fabric.rebuilt_snapshot(edges)


def routing_converged(
    fabric: RoutingFabric,
    edges: Optional[Iterable[Tuple[str, str]]] = None,
) -> bool:
    """True when the live fabric holds exactly the routing state a fresh
    build would — no stale routes survived, no repairs were missed."""
    return fabric.routing_snapshot() == rebuilt_routing_snapshot(fabric, edges)
