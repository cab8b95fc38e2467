"""Transport-agnostic content-based routing core (the message plane).

Routing in this system has two halves that must never diverge:

* the *control plane* — subscriptions issued at a broker propagate through
  the overlay so every broker records, per neighbour, which subscriptions
  are reachable via that neighbour (pruned by covering relations);
* the *data plane decision* — given an event at a broker, which neighbours
  lead toward matching subscriptions.

:class:`RoutingFabric` holds topology management, subscription
propagation, unsubscription repair and the forwarding decision in one
component that any transport can drive: the sim-clock
:class:`~repro.cluster.broker_cluster.BrokerCluster` turns its next-hop
answers into forwarding messages through broker mailboxes with simulated
link latency.

The fabric operates on :class:`~repro.pubsub.broker.Broker` nodes (or
anything with the same routing surface: ``subscribe_local`` /
``unsubscribe_local`` / ``learn_remote`` / ``forget_remote`` /
``remote_engines`` / ``interested_neighbours`` / ``stats``).

Incremental control plane
-------------------------

Every routing decision reduces to one canonical per-edge rule.  For each
*directed* table entry position — a ``(node, via-neighbour)`` pair — the
candidates are the live subscriptions whose home lies beyond that
neighbour, and the table holds exactly the greedy covering filter of the
candidates in subscription *issue order*: a candidate is selected unless
an earlier-issued selected candidate covers it (Siena semantics: the
covering route already forwards every event the covered one matches).
Because the rule is per-edge and order-canonical, the whole fabric state
is a pure function of (topology, issue-ordered live subscriptions) — the
property the convergence oracle (:meth:`rebuilt_snapshot`) checks.

The fabric maintains that rule *incrementally* instead of rebuilding:

* a **reverse route index** (subscription id → selected table entries)
  makes retraction touch only the routes that exist;
* a **pruned-by graph** records, per edge, which selected cover
  suppressed which candidate — retraction re-admits only actual victims,
  found by :class:`~repro.pubsub.subscriptions.CoveringIndex` lookups
  rather than ``covers()``-scanning every live subscription;
* re-admitted candidates evict later-issued entries they cover (whose own
  victims transfer by covering transitivity), so any mutation order
  converges to the same canonical tables — link restoration merges two
  components without the full component rebuild PR 4 paid;
* :meth:`disconnect`/:meth:`remove_node` purge only state that crossed
  the cut and repair only its victims (**delta repair**), with
  :meth:`reroute_component` retained as the from-scratch verification
  path (set :attr:`verify_repairs` to cross-check every mutation).

Covering-prune repair
---------------------

Propagation prunes a subscription's route at a broker when an
already-known route via the same neighbour *covers* it.  That makes
removal subtle: retracting a subscription must *re-advertise* every
remaining subscription it covered, because their routes may exist nowhere
upstream — the seed overlay skipped this and silently stopped forwarding
events to covered subscriptions once their cover left (see
``tests/pubsub/test_routing.py``
``test_unsubscribe_restores_covered_routes``).  Re-issuing a subscription
id with a changed definition retracts the old definition the same way
before propagating the new one, so stale routes cannot linger either.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.audit import RouteAuditLog
from repro.pubsub.broker import Broker
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import CoveringIndex, Subscription
from repro.sim.metrics import MetricsRegistry

# A directed routing-table position: (node name, via-neighbour name).
RouteEntry = Tuple[str, str]

#: Sentinel home-table entry for ids that are not (or no longer) homed.
_NOT_HOMED: Tuple[None, None] = (None, None)


@dataclass
class SubscribeOutcome:
    """Control-plane accounting for one subscription propagation."""

    subscription_id: str
    home_broker: str
    hops: int = 0
    pruned: int = 0
    replaced: bool = False
    # True when ingress merging absorbed the subscription: it is
    # registered locally but not advertised into the fabric because a
    # live advertised same-subscriber subscription at the same home has
    # the same signature.
    merged: bool = False


class _EdgeTable:
    """Control-plane bookkeeping for one directed table position.

    ``covers`` indexes the *selected* subscriptions (the ones actually in
    the node's per-neighbour matching engine), keyed by issue sequence;
    the pruned-by graph links every suppressed candidate to the selected
    cover that blocks it, in both directions.
    """

    __slots__ = ("covers", "blocker_of", "victims_of")

    def __init__(self) -> None:
        self.covers = CoveringIndex()
        self.blocker_of: Dict[str, str] = {}
        self.victims_of: Dict[str, Set[str]] = {}


class RoutingFabric:
    """Topology + routing state shared by every broker transport.

    The fabric owns the overlay graph (kept acyclic unless constructed
    with ``allow_cycles``, the redundant-mesh mode) and the id→home
    mapping of live subscriptions; per-broker routing tables live on the
    node objects themselves so the matching fast paths (``interested_neighbours`` → ``matches_any``) stay where
    the engines are.  With ``verify_repairs`` every mutation cross-checks
    the incremental result against a from-scratch rebuild (the CI churn
    oracle) and raises ``AssertionError`` on divergence.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        verify_repairs: bool = False,
        audit: Optional[RouteAuditLog] = None,
        allow_cycles: bool = False,
    ) -> None:
        self.nodes: Dict[str, object] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Redundant-mesh mode (set at construction).  With
        # ``allow_cycles`` the overlay may hold cycles: the per-edge
        # candidate rule generalizes to "the home is reachable from the
        # via-neighbour with the node itself removed" (on a forest that
        # reduces exactly to the acyclic BFS walk), every topology change
        # runs a diff-based repair over the live subscriptions, and the
        # data plane relies on per-event dedup at the transport to
        # suppress the duplicate forwards redundant paths produce.
        self.allow_cycles = allow_cycles
        # Mesh candidate-edge cache: home -> directed table positions,
        # valid for one topology version.
        self._topology_version = 0
        self._mesh_walk_version = -1
        self._mesh_walk_cache: Dict[str, List[RouteEntry]] = {}
        # Control-plane audit log (repro.obs.audit): when attached, every
        # select/prune/readmit/merge decision is recorded with its blocker
        # id.  Costs one `is not None` per decision when absent.
        self.audit = audit
        # node -> neighbours.  A dict used as an insertion-ordered set:
        # edge walks follow link order, never the process's string hash
        # order, so seeded runs (and the route audit) are reproducible.
        self._edges: Dict[str, Dict[str, None]] = {}
        # subscription id -> (home broker, live definition); insertion
        # order is issue order (re-issues move to the end), matching the
        # ascending `_seq` numbers the per-edge covering filter uses.
        self._home_of: Dict[str, Tuple[str, Subscription]] = {}
        self._seq: Dict[str, int] = {}
        self._next_seq = 1
        # Reverse route index: subscription id -> selected table entries.
        self._routes: Dict[str, Set[RouteEntry]] = {}
        # Reverse prune index: subscription id -> entries where a cover
        # suppresses it (the blocker lives in that edge's table).
        self._pruned_at: Dict[str, Set[RouteEntry]] = {}
        self._tables: Dict[RouteEntry, _EdgeTable] = {}
        self.verify_repairs = verify_repairs
        # Ingress merging of exact twins: a subscription with the same
        # signature as a live *advertised* same-subscriber subscription at
        # the same home is registered locally but kept out of
        # `_home_of`/`_seq`/routes — the twin's routes already bring every
        # matching event to the home broker (the duplicate-advert no-op).
        # merged id -> (home, definition, advertised coverer id).
        self._merged: Dict[str, Tuple[str, Subscription, str]] = {}
        # advertised coverer id -> merged ids riding on it, merge order.
        self._merged_children: Dict[str, List[str]] = {}
        # (home, subscriber, signature id) -> advertised ids; the O(1)
        # exact-duplicate probe.  At most one id per key: a second
        # arrival with the same key merges instead of advertising.
        self._twins: Dict[Tuple[str, str, int], List[str]] = {}
        # Data-plane route-set cache: (node, came_from, event signature)
        # -> next-hop list.  Every control-plane mutation bumps
        # `_route_version`; the cache is dropped lazily on the next
        # `next_hops` call that observes a stale version, so mutation
        # bursts pay one integer increment each, not a dict clear each.
        self._route_version = 0
        self._route_cache: Dict[Tuple, List[str]] = {}
        self._route_cache_version = -1
        self.route_cache_max = 8192

    # -- topology -----------------------------------------------------------

    def add_node(self, name: str, node: object) -> None:
        if name in self.nodes:
            raise ValueError(f"broker {name!r} already exists")
        self.nodes[name] = node
        self._edges[name] = {}
        self._topology_version += 1

    def connect(self, first: str, second: str, propagate: bool = True) -> None:
        """Join two brokers with a bidirectional overlay link.

        The overlay must remain acyclic; connecting two brokers already
        joined by a path raises ``ValueError``.

        The edge-merge advertisement is canonical: each side's live
        subscriptions cross into the other side with issue-order-aware
        pruning (later-issued routes they cover are evicted), so the
        merged tables equal a fresh build with no rebuild pass.  With no
        live subscriptions at all — topologies are usually wired before
        anything subscribes — the component walk is skipped outright
        (counted in ``overlay.adverts_skipped``), and a join side homing
        no subscriptions skips its advertisement direction the same way.

        With ``propagate=False`` only the edge structure is added — for
        callers that canonicalize with :meth:`reroute_component`
        themselves (the retained verification path).
        """
        if first not in self.nodes or second not in self.nodes:
            raise KeyError("both brokers must exist before connecting them")
        if first == second:
            raise ValueError("cannot connect a broker to itself")
        if second in self._edges[first]:
            raise ValueError(f"{first!r} and {second!r} are already connected")
        if self.allow_cycles:
            self._connect_mesh(first, second, propagate)
            return
        if self.path_exists(first, second):
            raise ValueError("overlay must remain acyclic (path already exists)")
        # The components being joined, captured before the edge exists:
        # each side's live subscriptions must be advertised *into the
        # other side only* — brokers on a subscription's own side already
        # hold its routes, so re-walking them would just inflate hop
        # stats — and subscriptions homed in some *third* component
        # (possible mid-churn, with several links down at once) have no
        # path to either side and must not be advertised at all.
        first_side: Optional[Set[str]] = None
        second_side: Optional[Set[str]] = None
        if propagate and self._home_of:
            first_side = self._component(first)
            second_side = self._component(second)
        self._edges[first][second] = None
        self._edges[second][first] = None
        self._route_version += 1
        self._topology_version += 1
        self.nodes[first].add_neighbour(second)
        self.nodes[second].add_neighbour(first)
        if not propagate:
            return
        if first_side is None or second_side is None:
            self.metrics.counter("overlay.adverts_skipped").increment()
            return
        # Batch the edge merge: one BFS walk per advertisement direction
        # (the two directions touch disjoint table positions), with each
        # side's subscriptions fed through the covering filter in issue
        # order, instead of a full component walk per subscription.
        first_walks: List[Tuple[Subscription, SubscribeOutcome]] = []
        second_walks: List[Tuple[Subscription, SubscribeOutcome]] = []
        for home, subscription in list(self._home_of.values()):
            if home in first_side:
                first_walks.append(
                    (subscription, SubscribeOutcome(subscription.subscription_id, home))
                )
            elif home in second_side:
                second_walks.append(
                    (subscription, SubscribeOutcome(subscription.subscription_id, home))
                )
        for origin, walks, via in (
            (first, first_walks, (first, second)),
            (second, second_walks, (second, first)),
        ):
            if not walks:
                # One side of the join homes nothing: that whole
                # advertisement direction is skipped.
                self.metrics.counter("overlay.adverts_skipped").increment()
            else:
                self._propagate_many(origin, walks, via=via)
        self._check_canonical("connect")

    def _connect_mesh(self, first: str, second: str, propagate: bool) -> None:
        """Mesh-mode link addition: add the edge (cycles allowed) and
        diff-repair every live subscription's table positions.

        Adding an edge can only *add* candidate positions (reachability
        grows), so the repair places the new candidacies in issue order
        and leaves everything else untouched; on a still-acyclic overlay
        the result is identical to the acyclic edge-merge path.
        """
        self._edges[first][second] = None
        self._edges[second][first] = None
        self._route_version += 1
        self._topology_version += 1
        self.nodes[first].add_neighbour(second)
        self.nodes[second].add_neighbour(first)
        if not propagate:
            return
        if self._home_of:
            self._retopology_repair()
        else:
            self.metrics.counter("overlay.adverts_skipped").increment()
        self._check_canonical("connect")

    def _retopology_repair(self) -> None:
        """Mesh-mode delta repair after an edge change.

        For every live subscription, diff the candidate positions of its
        home (:meth:`_mesh_edges`) against the positions it currently
        occupies (selected routes plus recorded prunes): stale positions
        are deselected (collecting their prune victims) or cleared, new
        candidacies are placed in global issue order, and victim
        readmission flushes once per touched edge with a candidacy
        filter — ending in exactly the state a fresh build on the new
        topology would hold (``verify_repairs`` cross-checks each call).
        """
        candidate_sets: Dict[str, Set[RouteEntry]] = {}

        def candidates_of(home: str) -> Set[RouteEntry]:
            cached = candidate_sets.get(home)
            if cached is None:
                cached = candidate_sets[home] = set(self._mesh_edges(home))
            return cached

        pending: Dict[RouteEntry, Set[str]] = {}
        placements: List[Tuple[int, Subscription, List[RouteEntry]]] = []
        purged = 0
        for subscription_id, (home, subscription) in list(self._home_of.items()):
            candidate_set = candidates_of(home)
            routes = self._routes.get(subscription_id)
            if routes:
                for edge in [e for e in routes if e not in candidate_set]:
                    victims = self._deselect(
                        edge, subscription_id, collect_victims=True
                    )
                    purged += 1
                    if victims:
                        pending.setdefault(edge, set()).update(victims)
            prunes = self._pruned_at.get(subscription_id)
            if prunes:
                for edge in [e for e in prunes if e not in candidate_set]:
                    self._clear_prune(edge, subscription_id)
            occupied = set(self._routes.get(subscription_id, ()))
            occupied.update(self._pruned_at.get(subscription_id, ()))
            added = [e for e in self._mesh_edges(home) if e not in occupied]
            if added:
                placements.append((self._seq[subscription_id], subscription, added))
        placements.sort(key=lambda item: item[0])
        placed = 0
        for seq, subscription, added in placements:
            for edge in added:
                if self._place(edge, subscription, seq):
                    placed += 1
        for edge, victims in pending.items():
            self._readmit(
                edge,
                victims,
                candidate=lambda vid, e=edge: e
                in candidates_of(self._home_of[vid][0]),
            )
        if purged:
            self.metrics.counter("overlay.routes_purged").increment(purged)
        if placed:
            self.metrics.counter("overlay.subscription_hops").increment(placed)
        self.metrics.counter("overlay.route_repairs").increment()

    def disconnect(self, first: str, second: str) -> bool:
        """Remove the overlay link between two brokers and repair routes.

        The overlay splits into two components.  Repair is *delta*: using
        the reverse route index, only routes whose subscription is homed
        across the cut from the entry's node are purged, and only the
        recorded prune victims of those purged covers are re-admitted —
        ending in exactly the state a fabric freshly built on the
        shrunken topology would hold (cross-checked by the convergence
        oracle and, with :attr:`verify_repairs`, on every call).

        Returns ``False`` when no such link exists.
        """
        if second not in self._edges.get(first, ()):
            return False
        del self._edges[first][second]
        del self._edges[second][first]
        self._route_version += 1
        self._topology_version += 1
        self.nodes[first].remove_neighbour(second)
        self.nodes[second].remove_neighbour(first)
        self.metrics.counter("overlay.links_removed").increment()
        # The two directed positions on the removed link are gone outright.
        self._drop_edge_state((first, second))
        self._drop_edge_state((second, first))
        if self.allow_cycles:
            # Losing an edge can only *shrink* candidacy (reachability
            # falls); the mesh diff repair deselects exactly the positions
            # whose remaining paths died with the link — on a mesh the
            # redundant paths keep their routes and delivery survives.
            self._retopology_repair()
        else:
            self._delta_split_repair(second)
            self.metrics.counter("overlay.route_repairs").increment()
        self._check_canonical("disconnect")
        return True

    def _delta_split_repair(self, far_start: str) -> None:
        """Purge routing state that crossed a just-removed cut and
        re-admit the pruned victims of the purged covers."""
        far = self._component(far_start)
        purged = 0
        pending: Dict[RouteEntry, Set[str]] = {}
        for subscription_id, (home, _sub) in list(self._home_of.items()):
            home_far = home in far
            routes = self._routes.get(subscription_id)
            if routes:
                crossed = [e for e in routes if (e[0] in far) != home_far]
                for edge in crossed:
                    victims = self._deselect(edge, subscription_id, collect_victims=True)
                    purged += 1
                    if victims:
                        pending.setdefault(edge, set()).update(victims)
            prunes = self._pruned_at.get(subscription_id)
            if prunes:
                for edge in [e for e in prunes if (e[0] in far) != home_far]:
                    self._clear_prune(edge, subscription_id)
        if purged:
            self.metrics.counter("overlay.routes_purged").increment(purged)
        for edge, victims in pending.items():
            node_far = edge[0] in far
            self._readmit(
                edge,
                victims,
                candidate=lambda vid, nf=node_far: (
                    (self._home_of[vid][0] in far) == nf
                ),
            )

    def remove_node(self, name: str) -> None:
        """Permanently remove a broker: links, routes, and homed state.

        Subscriptions homed at the broker are retracted first (with
        covering repair for their prune victims), then each link is torn
        down with delta repair; use link removal alone to model a
        *temporary* outage where the homed subscription set should
        survive for later re-advertisement.
        """
        if name not in self.nodes:
            raise KeyError(f"unknown broker {name!r}")
        # Merged subscriptions homed here go first, without promotion:
        # their home is being destroyed, so retracting their coverers
        # below must not re-advertise them.
        for subscription_id, (home, _sub, _coverer) in list(self._merged.items()):
            if home == name:
                self._unmerge(subscription_id)
        for subscription_id, (home, _sub) in list(self._home_of.items()):
            if home == name:
                self._retract(subscription_id, force=True)
        for neighbour in list(self._edges[name]):
            self.disconnect(name, neighbour)
        del self._edges[name]
        del self.nodes[name]

    def reroute_component(self, start: str) -> None:
        """Rebuild the routing tables of ``start``'s component from scratch.

        Clears every member's per-neighbour tables and re-propagates each
        live subscription homed inside the component in issue order.
        Delta repair makes this unnecessary on the hot paths; it remains
        the from-scratch *verification path* the incremental results are
        held equal to (and the fallback for callers that restructure
        topology behind the fabric's back).
        """
        component = self._component(start)
        for name in component:
            node = self.nodes[name]
            for neighbour in list(node.remote_engines):
                self._drop_edge_state((name, neighbour))
                node.clear_remote(neighbour)
        for home, subscription in list(self._home_of.values()):
            if home in component:
                self._propagate(home, subscription)
        self.metrics.counter("overlay.route_repairs").increment()

    def path_exists(self, start: str, goal: str) -> bool:
        return goal in self._component(start)

    def _component(self, start: str) -> Set[str]:
        """All brokers reachable from ``start`` over current edges."""
        seen = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for neighbour in self._edges[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        return seen

    def neighbours(self, broker_name: str) -> Set[str]:
        return set(self._edges[broker_name])

    def node_names(self) -> List[str]:
        return sorted(self.nodes)

    # -- control plane: subscription propagation -----------------------------

    def subscribe_at(self, broker_name: str, subscription: Subscription) -> SubscribeOutcome:
        """Place a subscription at ``broker_name`` and propagate its route.

        Re-issuing a live subscription id first retracts the old
        definition's routing state everywhere (with covering repair), so
        the new definition starts from a clean table at the *end* of the
        issue order.  A subscription absorbed by ingress merging (see
        :meth:`_ingest`) returns with ``merged=True`` and zero hops.
        """
        if broker_name not in self.nodes:
            raise KeyError(f"unknown broker {broker_name!r}")
        outcome, advertise = self._ingest(broker_name, subscription)
        if advertise:
            self._propagate(broker_name, subscription, outcome=outcome)
        self._check_canonical("subscribe")
        return outcome

    def subscribe_many_at(
        self, broker_name: str, subscriptions: Iterable[Subscription]
    ) -> List[SubscribeOutcome]:
        """Place a batch of subscriptions at ``broker_name`` with one
        fabric walk.

        Equivalent to :meth:`subscribe_at` in a loop — identical tables,
        issue order, merge decisions and per-subscription outcomes — but
        the advertisement BFS over the overlay runs once for the whole
        batch, and batch members covered by an earlier batch member copy
        that member's per-edge fate instead of re-probing every edge
        table (see :meth:`_propagate_many`).
        """
        if broker_name not in self.nodes:
            raise KeyError(f"unknown broker {broker_name!r}")
        batch = list(subscriptions)
        outcomes: List[SubscribeOutcome] = []
        advertise: List[Tuple[Subscription, SubscribeOutcome]] = []
        any_replaced = False
        for subscription in batch:
            outcome, needs_walk = self._ingest(
                broker_name, subscription, count=False, register_local=False
            )
            outcomes.append(outcome)
            any_replaced = any_replaced or outcome.replaced
            if needs_walk:
                advertise.append((subscription, outcome))
        if batch:
            self.metrics.counter("overlay.subscriptions").increment(len(batch))
        # A later batch entry reusing an id retracts (or merges away) the
        # earlier entry during its own ingest; only definitions still
        # registered under their id advertise.  Without this filter a
        # superseded entry would be walked with its successor's issue
        # number — or, if the successor merged, with none at all.  An
        # in-batch supersession implies some entry replaced a live id, so
        # batches without replacements (the common case) skip the scan.
        if advertise and any_replaced:
            home_of = self._home_of
            advertise = [
                (subscription, outcome)
                for subscription, outcome in advertise
                if home_of.get(subscription.subscription_id, _NOT_HOMED)[1]
                is subscription
            ]
        # Local registration runs once for the whole batch (the engine's
        # add_many path); merge decisions above depend only on fabric
        # state (_twins), never on the local engine contents.
        node = self.nodes[broker_name]
        register_many = getattr(node, "subscribe_local_many", None)
        if register_many is not None:
            register_many(batch)
        else:  # pragma: no cover - non-Broker node objects
            for subscription in batch:
                node.subscribe_local(subscription)
        if advertise:
            self._propagate_many(broker_name, advertise)
        self._check_canonical("subscribe_many")
        return outcomes

    def _ingest(
        self,
        broker_name: str,
        subscription: Subscription,
        count: bool = True,
        register_local: bool = True,
    ) -> Tuple[SubscribeOutcome, bool]:
        """Local registration + merge decision for one subscription.

        Returns ``(outcome, needs_walk)``; when ``needs_walk`` the caller
        must advertise the subscription (its issue number is already
        assigned).  When ingress merging absorbs it instead, it is live
        in the home broker's local engine but holds no fabric state
        beyond the merge record — the advertised coverer's routes already
        deliver every event it matches.
        """
        subscription_id = subscription.subscription_id
        replaced = False
        if subscription_id in self._home_of:
            # Re-issue at the same home keeps the local engine entry so the
            # node's replace-on-readd path sees a known id and does not
            # double-count subscriptions_received; a home move is a real
            # removal at the old broker plus a fresh placement at the new.
            old_home = self._home_of[subscription_id][0]
            self._retract(
                subscription_id,
                keep_local=(old_home == broker_name),
                force=True,
            )
            replaced = True
        elif subscription_id in self._merged:
            old_home = self._merged[subscription_id][0]
            self._unmerge(subscription_id, keep_local=(old_home == broker_name))
            replaced = True
        if register_local:
            self.nodes[broker_name].subscribe_local(subscription)
        if count:
            self.metrics.counter("overlay.subscriptions").increment()
        outcome = SubscribeOutcome(
            subscription_id=subscription_id,
            home_broker=broker_name,
            replaced=replaced,
        )
        coverer_id = self._ingress_cover(broker_name, subscription)
        if coverer_id is not None:
            self._merged[subscription_id] = (broker_name, subscription, coverer_id)
            self._merged_children.setdefault(coverer_id, []).append(subscription_id)
            outcome.merged = True
            self.metrics.counter("overlay.adverts_skipped").increment()
            self.metrics.counter("overlay.subscriptions_merged").increment()
            if self.audit is not None:
                self.audit.record(
                    "merged-ingress",
                    subscription_id,
                    node=broker_name,
                    blocker=coverer_id,
                )
            return outcome, False
        self._home_of[subscription_id] = (broker_name, subscription)
        self._seq[subscription_id] = self._next_seq
        self._next_seq += 1
        self._register_ingress(broker_name, subscription)
        return outcome, True

    # -- ingress merging ------------------------------------------------------

    def _ingress_cover(self, home: str, subscription: Subscription) -> Optional[str]:
        """Id of the live advertised same-subscriber subscription at
        ``home`` with ``subscription``'s exact signature (the
        duplicate-advert no-op), if any.

        Coverers are always advertised subscriptions — a merged twin's
        twin is advertised — so merge chains cannot form.
        """
        signature_id = subscription.signature_id()
        if signature_id is not None:
            twins = self._twins.get((home, subscription.subscriber, signature_id))
            if twins:
                return twins[0]
        return None

    def _register_ingress(self, home: str, subscription: Subscription) -> None:
        signature_id = subscription.signature_id()
        if signature_id is not None:
            self._twins.setdefault(
                (home, subscription.subscriber, signature_id), []
            ).append(subscription.subscription_id)

    def _unregister_ingress(self, home: str, subscription: Subscription) -> None:
        signature_id = subscription.signature_id()
        if signature_id is not None:
            key = (home, subscription.subscriber, signature_id)
            ids = self._twins.get(key)
            if ids is not None:
                try:
                    ids.remove(subscription.subscription_id)
                except ValueError:
                    pass
                if not ids:
                    del self._twins[key]

    def _unmerge(self, subscription_id: str, keep_local: bool = False) -> None:
        """Drop a merge record (and, unless ``keep_local``, the local
        engine entry).  No routing state exists for a merged id."""
        home, _subscription, coverer_id = self._merged.pop(subscription_id)
        siblings = self._merged_children.get(coverer_id)
        if siblings is not None:
            try:
                siblings.remove(subscription_id)
            except ValueError:
                pass
            if not siblings:
                del self._merged_children[coverer_id]
        if not keep_local:
            self.nodes[home].unsubscribe_local(subscription_id)

    def _promote_children(self, coverer_id: str) -> None:
        """Re-issue the merged subscriptions that rode on a just-retracted
        coverer, in merge order.

        Each child keeps its local engine entry and re-enters through
        :meth:`_ingest` with a fresh issue number at the end of the issue
        order — exactly where a rebuild would place it — so it may
        re-merge under another advertised cover (including a sibling
        promoted just before it) or advertise into the fabric.
        """
        children = self._merged_children.pop(coverer_id, None)
        if not children:
            return
        for child_id in children:
            entry = self._merged.pop(child_id, None)
            if entry is None:
                continue
            home, subscription, _coverer = entry
            outcome, needs_walk = self._ingest(home, subscription, count=False)
            if needs_walk:
                self._propagate(home, subscription, outcome=outcome)
            self.metrics.counter("overlay.subscriptions_unmerged").increment()

    def unsubscribe_at(self, broker_name: str, subscription_id: str) -> bool:
        """Remove a subscription homed at ``broker_name``.

        Returns ``False`` when the id is unknown or homed elsewhere (the
        caller is not its owner), mirroring the per-broker semantics of
        ``Broker.unsubscribe_local``.  Retracting a merged subscription
        just drops its local registration and merge record; retracting an
        advertised one also promotes any merged subscriptions that rode
        on it.
        """
        merged = self._merged.get(subscription_id)
        if merged is not None:
            if merged[0] != broker_name:
                return False
            if subscription_id not in self.nodes[broker_name].local_engine:
                # Fabric bypassed — side-effect-free failure, like the
                # advertised path below.
                return False
            self._unmerge(subscription_id)
            self.metrics.counter("overlay.unsubscriptions").increment()
            return True
        homed = self._home_of.get(subscription_id)
        if homed is None or homed[0] != broker_name:
            return False
        removed = self._retract(subscription_id)
        if removed:
            self.metrics.counter("overlay.unsubscriptions").increment()
            self._check_canonical("unsubscribe")
        return removed

    def unsubscribe_many_at(
        self, broker_name: str, subscription_ids: Iterable[str]
    ) -> List[bool]:
        """Retract a batch of subscriptions homed at ``broker_name``.

        Snapshot-equivalent to :meth:`unsubscribe_at` in a loop (same
        per-id results, same canonical tables), but pruned-by readmission
        is flushed once per touched edge at the end of the batch instead
        of once per retraction.  Deferring is canonical because
        :meth:`_place` probes only the *selected* covering index: a
        not-yet-readmitted victim is simply absent while later batch
        members retract or merged children promote, and :meth:`_readmit`
        re-runs the greedy decision in issue order — booting any
        later-issued entry the victim covers — so every interleaving
        converges to the same per-edge greedy filter (the
        :attr:`verify_repairs` oracle cross-checks this).
        """
        results: List[bool] = []
        pending: Dict[RouteEntry, Set[str]] = {}
        removed = 0
        for subscription_id in subscription_ids:
            merged = self._merged.get(subscription_id)
            if merged is not None:
                if (
                    merged[0] != broker_name
                    or subscription_id not in self.nodes[broker_name].local_engine
                ):
                    results.append(False)
                    continue
                self._unmerge(subscription_id)
                removed += 1
                results.append(True)
                continue
            homed = self._home_of.get(subscription_id)
            if homed is None or homed[0] != broker_name:
                results.append(False)
                continue
            ok = self._retract_deferred(subscription_id, pending)
            if ok:
                removed += 1
            results.append(ok)
        for edge, victims in pending.items():
            self._readmit(edge, victims)
        if removed:
            self.metrics.counter("overlay.unsubscriptions").increment(removed)
            self._check_canonical("unsubscribe_many")
        return results

    def _retract_deferred(
        self, subscription_id: str, pending: Dict[RouteEntry, Set[str]]
    ) -> bool:
        """:meth:`_retract` with readmission deferred into ``pending``.

        Accumulates each purged route's prune victims per edge for the
        caller to flush in one :meth:`_readmit` pass per edge; everything
        else (home/seq/ingress bookkeeping, prune clearing, merged-child
        promotion) runs exactly as the sequential path does.  Victims
        that are themselves retracted later in the batch are skipped by
        ``_readmit``'s liveness check.
        """
        home, removed_sub = self._home_of[subscription_id]
        home_node = self.nodes[home]
        if subscription_id not in home_node.local_engine:
            return False
        home_node.unsubscribe_local(subscription_id)
        if self.audit is not None:
            self.audit.record("retracted", subscription_id, node=home)
        del self._home_of[subscription_id]
        del self._seq[subscription_id]
        self._unregister_ingress(home, removed_sub)
        for edge in list(self._pruned_at.get(subscription_id, ())):
            self._clear_prune(edge, subscription_id)
        for edge in list(self._routes.get(subscription_id, ())):
            victims = self._deselect(edge, subscription_id, collect_victims=True)
            if victims:
                pending.setdefault(edge, set()).update(victims)
        self._promote_children(subscription_id)
        return True

    def _retract(
        self, subscription_id: str, keep_local: bool = False, force: bool = False
    ) -> bool:
        """Drop a subscription and every route toward it, then repair.

        The reverse route index bounds the purge to entries that exist,
        and repair re-admits only the recorded prune victims of those
        entries — no sweep over nodes or live subscriptions.

        The failure path — the home broker's local engine no longer holds
        the id because the fabric was bypassed — is side-effect-free: no
        home-table, route or prune state changes and ``False`` returns.
        ``force`` overrides that for callers replacing or discarding the
        definition anyway (re-issue, node removal), where the old routing
        state must not linger.  ``keep_local`` leaves the home broker's
        local engine untouched (the caller is about to replace the entry
        in place).
        """
        home, removed_sub = self._home_of[subscription_id]
        home_node = self.nodes[home]
        present = subscription_id in home_node.local_engine
        if not present and not force:
            return False
        if present and not keep_local:
            home_node.unsubscribe_local(subscription_id)
        if self.audit is not None:
            self.audit.record("retracted", subscription_id, node=home)
        del self._home_of[subscription_id]
        del self._seq[subscription_id]
        self._unregister_ingress(home, removed_sub)
        for edge in list(self._pruned_at.get(subscription_id, ())):
            self._clear_prune(edge, subscription_id)
        pending: Dict[RouteEntry, Set[str]] = {}
        for edge in list(self._routes.get(subscription_id, ())):
            victims = self._deselect(edge, subscription_id, collect_victims=True)
            if victims:
                pending[edge] = victims
        for edge, victims in pending.items():
            self._readmit(edge, victims)
        # Merged subscriptions that rode on this coverer re-enter the
        # issue order now that the fabric is canonical again.
        self._promote_children(subscription_id)
        return present

    # -- per-edge canonical placement ----------------------------------------

    def _select(
        self,
        edge: RouteEntry,
        subscription: Subscription,
        seq: int,
        reason: str = "issued",
    ) -> None:
        node_name, via = edge
        node = self.nodes[node_name]
        self._route_version += 1
        node.learn_remote(via, subscription)
        node.stats.subscriptions_forwarded += 1
        table = self._tables.get(edge)
        if table is None:
            table = self._tables[edge] = _EdgeTable()
        table.covers.add(subscription, priority=seq)
        self._routes.setdefault(subscription.subscription_id, set()).add(edge)
        if self.audit is not None:
            self.audit.record(
                reason,
                subscription.subscription_id,
                node=node_name,
                via=via,
                seq=seq,
            )

    def _deselect(
        self, edge: RouteEntry, subscription_id: str, collect_victims: bool = False
    ) -> Set[str]:
        """Remove a selected entry; optionally detach and return its
        recorded prune victims (for re-admission by the caller)."""
        node_name, via = edge
        self._route_version += 1
        self.nodes[node_name].forget_remote(via, subscription_id)
        victims: Set[str] = set()
        table = self._tables.get(edge)
        if table is not None:
            table.covers.discard(subscription_id)
            if collect_victims:
                victims = table.victims_of.pop(subscription_id, set())
                for victim in victims:
                    table.blocker_of.pop(victim, None)
        routes = self._routes.get(subscription_id)
        if routes is not None:
            routes.discard(edge)
            if not routes:
                del self._routes[subscription_id]
        return victims

    def _record_prune(
        self,
        edge: RouteEntry,
        victim_id: str,
        blocker_id: str,
        reason: str = "covered-by",
    ) -> None:
        table = self._tables.get(edge)
        if table is None:
            table = self._tables[edge] = _EdgeTable()
        table.blocker_of[victim_id] = blocker_id
        table.victims_of.setdefault(blocker_id, set()).add(victim_id)
        self._pruned_at.setdefault(victim_id, set()).add(edge)
        if self.audit is not None:
            self.audit.record(
                reason, victim_id, node=edge[0], via=edge[1], blocker=blocker_id
            )

    def _clear_prune(self, edge: RouteEntry, victim_id: str) -> None:
        table = self._tables.get(edge)
        if table is not None:
            blocker = table.blocker_of.pop(victim_id, None)
            if blocker is not None:
                victims = table.victims_of.get(blocker)
                if victims is not None:
                    victims.discard(victim_id)
                    if not victims:
                        del table.victims_of[blocker]
        prunes = self._pruned_at.get(victim_id)
        if prunes is not None:
            prunes.discard(edge)
            if not prunes:
                del self._pruned_at[victim_id]

    def _drop_edge_state(self, edge: RouteEntry) -> None:
        """Forget all bookkeeping of a table position whose link is gone
        (the node-side engine is dropped by ``remove_neighbour``)."""
        self._route_version += 1
        table = self._tables.pop(edge, None)
        if table is None:
            return
        for subscription_id in table.covers.ids():
            routes = self._routes.get(subscription_id)
            if routes is not None:
                routes.discard(edge)
                if not routes:
                    del self._routes[subscription_id]
        for victim in table.blocker_of:
            prunes = self._pruned_at.get(victim)
            if prunes is not None:
                prunes.discard(edge)
                if not prunes:
                    del self._pruned_at[victim]

    def _place(self, edge: RouteEntry, subscription: Subscription, seq: int) -> bool:
        """The canonical greedy decision for one candidate at one edge.

        Selected iff no earlier-issued selected candidate covers it; on
        selection, later-issued entries it covers are evicted (their
        victims transfer by covering transitivity).  Returns ``True``
        when the subscription was learned at this edge.
        """
        subscription_id = subscription.subscription_id
        table = self._tables.get(edge)
        if table is None:
            table = self._tables[edge] = _EdgeTable()
        cover = table.covers.first_cover(
            subscription, before=seq, exclude=subscription_id
        )
        if cover is not None:
            self._record_prune(edge, subscription_id, cover.subscription_id)
            return False
        self._select(edge, subscription, seq)
        for booted in table.covers.covered_by(
            subscription, after=seq, exclude=subscription_id
        ):
            self._boot(edge, booted.subscription_id, subscription_id)
        return True

    def _boot(self, edge: RouteEntry, booted_id: str, cover_id: str) -> None:
        """Evict a later-issued selected entry that ``cover_id`` covers.

        The evicted entry's own recorded victims are covered by the new
        cover too (covering is transitive), so they transfer to it rather
        than being re-examined.
        """
        inherited = self._deselect(edge, booted_id, collect_victims=True)
        for victim in inherited:
            self._record_prune(edge, victim, cover_id)
        self._record_prune(edge, booted_id, cover_id, reason="evicted")

    def _readmit(
        self,
        edge: RouteEntry,
        victim_ids: Iterable[str],
        candidate: Optional[Callable[[str], bool]] = None,
    ) -> None:
        """Re-run the greedy decision for victims whose blocker left.

        Victims are processed in issue order so earlier re-admissions can
        block later ones exactly as a fresh build would.  ``candidate``
        filters out victims that no longer route through this edge at all
        (their home fell on the same side of a cut as the edge's node);
        their prune records are simply dropped.
        """
        readmitted = 0
        seq_of = self._seq
        for victim_id in sorted(victim_ids, key=lambda vid: seq_of.get(vid, 0)):
            if victim_id not in self._home_of or (
                candidate is not None and not candidate(victim_id)
            ):
                self._clear_prune(edge, victim_id)
                continue
            subscription = self._home_of[victim_id][1]
            seq = seq_of[victim_id]
            table = self._tables.get(edge)
            if table is None:
                table = self._tables[edge] = _EdgeTable()
            cover = table.covers.first_cover(subscription, before=seq, exclude=victim_id)
            if cover is not None:
                # Still covered — just re-point the prune record.
                table.blocker_of[victim_id] = cover.subscription_id
                table.victims_of.setdefault(cover.subscription_id, set()).add(victim_id)
                if self.audit is not None:
                    self.audit.record(
                        "covered-by",
                        victim_id,
                        node=edge[0],
                        via=edge[1],
                        blocker=cover.subscription_id,
                    )
                continue
            prunes = self._pruned_at.get(victim_id)
            if prunes is not None:
                prunes.discard(edge)
                if not prunes:
                    del self._pruned_at[victim_id]
            self._select(edge, subscription, seq, reason="readmitted-victim")
            readmitted += 1
            for booted in table.covers.covered_by(
                subscription, after=seq, exclude=victim_id
            ):
                self._boot(edge, booted.subscription_id, victim_id)
        if readmitted:
            self.metrics.counter("overlay.routes_readmitted").increment(readmitted)

    def _walk_edges(
        self, origin: str, via: Optional[Tuple[str, str]] = None
    ) -> List[RouteEntry]:
        """Directed table positions a subscription homed at ``origin``
        must be placed at, in BFS visit order.

        With ``via=(from_broker, to_broker)`` the walk starts across that
        single edge instead of fanning out from ``origin`` — used when a
        new link joins two components and routes must be advertised into
        the far side only.  The walk is subscription-independent (pruning
        does not stop the BFS), which is what lets a whole batch share
        one walk.

        In mesh mode the generalized candidate rule applies instead
        (:meth:`_mesh_edges`; ``via`` is never used there — mesh topology
        changes go through :meth:`_retopology_repair`).
        """
        if self.allow_cycles:
            return self._mesh_edges(origin)
        if via is None:
            visited = {origin}
            queue = deque((origin, neighbour) for neighbour in self._edges[origin])
        else:
            from_broker, to_broker = via
            visited = {from_broker}
            queue = deque([(from_broker, to_broker)])
        edges: List[RouteEntry] = []
        while queue:
            from_broker, to_broker = queue.popleft()
            if to_broker in visited:
                continue
            visited.add(to_broker)
            edges.append((to_broker, from_broker))
            for neighbour in self._edges[to_broker]:
                if neighbour not in visited:
                    queue.append((to_broker, neighbour))
        return edges

    def _mesh_edges(self, origin: str) -> List[RouteEntry]:
        """Directed table positions a subscription homed at ``origin``
        occupies on a (possibly cyclic) overlay.

        A position ``(node, via)`` is a candidate iff ``origin`` is
        reachable from ``via`` with ``node`` itself removed from the
        graph — i.e. the via-neighbour lies on some path from the node
        toward the home that does not double back through the node.  On
        a forest exactly one neighbour per node qualifies (the parent
        toward the home), so the rule reduces to the acyclic BFS walk;
        on a mesh every neighbour on *any* redundant path qualifies,
        which is what lets delivery survive a link or broker loss (the
        transport's per-event dedup suppresses the duplicate arrivals).

        Results are cached per home until the next topology change.
        """
        if self._mesh_walk_version != self._topology_version:
            self._mesh_walk_cache.clear()
            self._mesh_walk_version = self._topology_version
        cached = self._mesh_walk_cache.get(origin)
        if cached is not None:
            return cached
        # BFS node order from the home keeps the emitted edge list
        # distance-layered and deterministic (hop metrics, audit order).
        order: List[str] = []
        seen = {origin}
        queue = deque([origin])
        while queue:
            current = queue.popleft()
            order.append(current)
            for neighbour in sorted(self._edges[current]):
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        edges: List[RouteEntry] = []
        for node in order:
            if node == origin:
                continue
            reachable = self._reachable_without(origin, node)
            for via in sorted(self._edges[node]):
                if via in reachable:
                    edges.append((node, via))
        self._mesh_walk_cache[origin] = edges
        return edges

    def _reachable_without(self, start: str, removed: str) -> Set[str]:
        """Brokers reachable from ``start`` with ``removed`` cut out."""
        seen = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for neighbour in self._edges[current]:
                if neighbour != removed and neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        return seen

    def _propagate(
        self,
        origin: str,
        subscription: Subscription,
        via: Optional[Tuple[str, str]] = None,
        outcome: Optional[SubscribeOutcome] = None,
    ) -> SubscribeOutcome:
        """Breadth-first propagation: each broker records which neighbour
        leads back toward the subscriber, pruned by covering relations
        through the per-edge canonical placement.
        """
        if outcome is None:
            outcome = SubscribeOutcome(
                subscription_id=subscription.subscription_id, home_broker=origin
            )
        seq = self._seq[subscription.subscription_id]
        for edge in self._walk_edges(origin, via):
            if self._place(edge, subscription, seq):
                outcome.hops += 1
                self.metrics.counter("overlay.subscription_hops").increment()
            else:
                outcome.pruned += 1
                self.metrics.counter("overlay.subscription_pruned").increment()
        return outcome

    def _propagate_many(
        self,
        origin: str,
        advertise: List[Tuple[Subscription, SubscribeOutcome]],
        via: Optional[Tuple[str, str]] = None,
    ) -> None:
        """Advertise a batch of subscriptions homed at ``origin`` (in
        ascending issue order) over ONE edge walk.

        Canonically equivalent to calling :meth:`_propagate` per
        subscription: the walk's edge list is subscription-independent,
        and per-edge placements run in ascending issue order.  Two
        amortizations make the batch cheap:

        * the BFS over the component runs once, not per subscription;
        * a batch member covered by an *earlier batch member* copies that
          member's per-edge fate — blocker = the member itself where it
          was selected, else the member's own blocker (selected, earlier
          issued, covers by transitivity) — with two dict operations per
          edge instead of a covering probe against every edge table.
          (During the batch nothing is deselected and boots transfer
          victims to the booting cover, so a placed member's per-edge
          fate stays valid for the rest of the walk.)

        Only slow-path (non-copied) members enter the batch covering
        index: a copied member's own covers are covered by its cover too
        (transitivity), so probing the much smaller placed set finds a
        valid cover whenever any batch cover exists, and the probe cost
        stays bounded by the batch's *distinct* shapes rather than its
        size.
        """
        edges = self._walk_edges(origin, via)
        if not edges:
            return
        batch_covers = CoveringIndex()
        num_edges = len(edges)
        pruned_at = self._pruned_at
        # cover id -> precomputed (blocker_of dict, blocker id, victims set)
        # per edge.  A placed member's per-edge fate is frozen for the
        # rest of the walk (nothing is deselected during a batch, and a
        # fresh subscribe carries the highest seq so it never boots), so
        # every member sharing a cover replays the same plan.
        plans: Dict[str, Optional[List[Tuple[Dict[str, str], str, Set[str]]]]] = {}
        # signature id -> resolved batch cover for that signature: the
        # first slow-path member carrying it, or the cover the first such
        # member copied.  Equal signatures cover each other and batch
        # covers stay placed, so the decision is stable for the whole
        # batch — every later same-shape member costs one dict probe
        # instead of a covering-index query.
        shape_cover: Dict[int, str] = {}
        # cover id -> every member replaying its plan.  Flushed into the
        # edge tables in bulk after the walk: one C-level set/dict update
        # per (plan, edge) instead of a Python loop per member x edge.
        fast_members: Dict[str, List[str]] = {}
        total_hops = 0
        total_pruned = 0
        for subscription, outcome in advertise:
            subscription_id = subscription.subscription_id
            signature_id = subscription.signature_id()
            cover_id = (
                shape_cover.get(signature_id) if signature_id is not None else None
            )
            if cover_id is None:
                cover = batch_covers.first_cover(
                    subscription, exclude=subscription_id
                )
                cover_id = None if cover is None else cover.subscription_id
            if cover_id is not None:
                plan = plans.get(cover_id, False)
                if plan is False:
                    cover_routes = self._routes.get(cover_id) or ()
                    plan = []
                    for edge in edges:
                        table = self._tables.get(edge)
                        if edge in cover_routes:
                            blocker_id = cover_id
                        else:
                            blocker_id = (
                                None if table is None else table.blocker_of.get(cover_id)
                            )
                        if blocker_id is None or table is None:  # pragma: no cover
                            plan = None
                            break
                        plan.append(
                            (
                                table.blocker_of,
                                blocker_id,
                                table.victims_of.setdefault(blocker_id, set()),
                            )
                        )
                    plans[cover_id] = plan
                if plan is not None:
                    if signature_id is not None and signature_id not in shape_cover:
                        shape_cover[signature_id] = cover_id
                    fast_members.setdefault(cover_id, []).append(subscription_id)
                    pruned_at.setdefault(subscription_id, set()).update(edges)
                    outcome.pruned += num_edges
                    total_pruned += num_edges
                    continue
            seq = self._seq[subscription_id]
            hops = 0
            pruned = 0
            for edge in edges:
                if self._place(edge, subscription, seq):
                    hops += 1
                else:
                    pruned += 1
            outcome.hops += hops
            outcome.pruned += pruned
            total_hops += hops
            total_pruned += pruned
            batch_covers.add(subscription, priority=seq)
            if signature_id is not None and signature_id not in shape_cover:
                shape_cover[signature_id] = subscription_id
        # Bulk flush of the replayed plans.  Safe to defer: nothing between
        # the fast-path decision and this point reads the pruned-by graph
        # (_place only probes the *selected* index), and superseded same-id
        # batch entries were filtered out before the walk.
        for cover_id, member_ids in fast_members.items():
            for blocker_of, blocker_id, victims in plans[cover_id]:
                victims.update(member_ids)
                blocker_of.update(dict.fromkeys(member_ids, blocker_id))
        if total_hops:
            self.metrics.counter("overlay.subscription_hops").increment(total_hops)
        if total_pruned:
            self.metrics.counter("overlay.subscription_pruned").increment(total_pruned)

    # -- data plane decision --------------------------------------------------

    def next_hops(
        self,
        broker_name: str,
        event: Event,
        came_from: Optional[str] = None,
    ) -> List[str]:
        """Neighbours the event must be forwarded to from ``broker_name``:
        those whose routing table holds at least one subscription matching
        the event.

        Routed answers are cached per (node, arrival link, event
        signature) until the next control-plane mutation, so a batch of
        same-shape events pays one ``interested_neighbours`` walk instead
        of one per event.  Callers must treat the returned list as
        read-only.
        """
        cache = self._route_cache
        if self._route_cache_version != self._route_version:
            cache.clear()
            self._route_cache_version = self._route_version
        try:
            key = (
                broker_name,
                came_from,
                event.event_type,
                tuple(sorted(event.attributes.items())),
            )
        except TypeError:
            # Unhashable/unorderable attribute values: uncacheable event.
            return self.nodes[broker_name].interested_neighbours(
                event, exclude=came_from
            )
        hops = cache.get(key)
        if hops is None:
            if len(cache) >= self.route_cache_max:
                cache.clear()
            hops = self.nodes[broker_name].interested_neighbours(
                event, exclude=came_from
            )
            cache[key] = hops
        return hops

    # -- reporting ------------------------------------------------------------

    def subscription_home(self, subscription_id: str) -> Optional[str]:
        homed = self._home_of.get(subscription_id)
        if homed is not None:
            return homed[0]
        merged = self._merged.get(subscription_id)
        return merged[0] if merged is not None else None

    def live_subscriptions(self) -> List[Subscription]:
        """Advertised live subscriptions (excludes ingress-merged ones;
        see :meth:`merged_subscriptions`)."""
        return [subscription for _home, subscription in self._home_of.values()]

    def homed_subscriptions(self) -> List[Tuple[str, Subscription]]:
        """Advertised ``(home broker, subscription)`` pairs in issue
        order — the set a rebuild re-subscribes.  Ingress-merged
        subscriptions hold no fabric state and are reported separately."""
        return list(self._home_of.values())

    def merged_subscriptions(self) -> List[Tuple[str, Subscription, str]]:
        """Ingress-merged ``(home, subscription, coverer id)`` records."""
        return [
            (home, subscription, coverer_id)
            for home, subscription, coverer_id in self._merged.values()
        ]

    def edges(self) -> List[Tuple[str, str]]:
        """Current overlay links, each reported once (sorted endpoint order)."""
        seen = set()
        for name, neighbours in self._edges.items():
            for neighbour in neighbours:
                seen.add((name, neighbour) if name < neighbour else (neighbour, name))
        return sorted(seen)

    def routing_snapshot(self) -> Dict[str, Dict[str, Tuple[str, ...]]]:
        """Canonical view of all routing state, for convergence checks:
        node -> neighbour -> sorted ids of subscriptions routed via it
        (neighbours with empty tables are omitted)."""
        snapshot: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        for name in sorted(self.nodes):
            node = self.nodes[name]
            tables = {
                neighbour: tuple(
                    sorted(s.subscription_id for s in engine.subscriptions())
                )
                for neighbour, engine in node.remote_engines.items()
                if len(engine)
            }
            if tables:
                snapshot[name] = tables
        return snapshot

    def rebuilt_snapshot(
        self, edges: Optional[Iterable[Tuple[str, str]]] = None
    ) -> Dict[str, Dict[str, Tuple[str, ...]]]:
        """Routing state of a fabric built from scratch on this fabric's
        surviving topology (its current edges unless ``edges`` is given),
        subscribing the live set in its original issue order — the
        verification oracle every delta repair is held equal to."""
        fresh = RoutingFabric(allow_cycles=self.allow_cycles)
        for name in self.node_names():
            fresh.add_node(name, Broker(name))
        for first, second in self.edges() if edges is None else edges:
            fresh.connect(first, second)
        for home, subscription in self.homed_subscriptions():
            fresh.subscribe_at(home, subscription)
        return fresh.routing_snapshot()

    def _check_canonical(self, context: str) -> None:
        if not self.verify_repairs:
            return
        live = self.routing_snapshot()
        rebuilt = self.rebuilt_snapshot()
        if live != rebuilt:
            raise AssertionError(
                f"delta repair diverged from a fresh rebuild after {context}"
            )

    def total_routing_state(self) -> int:
        return sum(node.routing_table_size() for node in self.nodes.values())

    def __len__(self) -> int:
        return len(self.nodes)
