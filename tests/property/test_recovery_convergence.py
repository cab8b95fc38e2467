"""Randomized convergence: healed routing state ≡ fabric rebuilt from scratch.

The fault-tolerance subsystem's core claim is that after *any* sequence
of broker crashes, recoveries and link churn, the surviving
:class:`RoutingFabric` holds exactly the routing state a fabric freshly
built on the surviving topology (same subscription issue order) would —
no stale routes toward the dead, no covered subscription silently
unrouted.  These tests generate seeded random topologies, subscription
populations (with real covering structure) and churn sequences, and
assert snapshot equality through :func:`routing_converged` after *every*
step, not just at the end.  The cluster-level variants run the full
heartbeat detector on the sim clock and additionally pin post-recovery
delivery sets to the single-engine oracle.
"""

from __future__ import annotations

import pytest

from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.cluster.recovery import FailureDetector, routing_converged
from repro.cluster.routing import RoutingFabric
from repro.experiments.substrate import make_event, make_subscription
from repro.pubsub.broker import Broker
from repro.pubsub.matching import MatchingEngine
from repro.pubsub.subscriptions import Subscription
from repro.sim.rng import SeededRNG

TOPOLOGIES = ["line", "star", "tree"]


def _random_tree_edges(rng, num_nodes):
    """A random tree: each node links to a random earlier node."""
    return [
        (f"n{rng.randint(0, index - 1)}", f"n{index}") for index in range(1, num_nodes)
    ]


def _populate(fabric, rng, names, num_subs):
    topics = [f"topic{i:02d}" for i in range(8)]
    for index in range(num_subs):
        home = names[rng.randint(0, len(names) - 1)]
        fabric.subscribe_at(
            home, make_subscription(rng, topics, subscriber=f"user{index % 11}")
        )


class TestFabricChurnConvergence:
    @pytest.mark.parametrize("seed", [3, 17, 64])
    def test_converged_after_every_link_churn_step(self, seed):
        rng = SeededRNG(seed)
        num_nodes = rng.randint(4, 8)
        edges = _random_tree_edges(rng.fork("topo"), num_nodes)
        fabric = RoutingFabric()
        names = [f"n{i}" for i in range(num_nodes)]
        for name in names:
            fabric.add_node(name, Broker(name))
        for first, second in edges:
            fabric.connect(first, second)
        _populate(fabric, rng.fork("subs"), names, num_subs=60)
        assert routing_converged(fabric)

        churn_rng = rng.fork("churn")
        down: list = []
        for _step in range(30):
            if down and (not edges or churn_rng.random() < 0.5):
                first, second = down.pop(churn_rng.randint(0, len(down) - 1))
                # Heal the way BrokerCluster.restore_link does: structural
                # edge add, then canonicalize the merged component before
                # demanding snapshot equality.
                fabric.connect(first, second, propagate=False)
                fabric.reroute_component(first)
                edges.append((first, second))
            else:
                first, second = edges.pop(churn_rng.randint(0, len(edges) - 1))
                assert fabric.disconnect(first, second)
                down.append((first, second))
            assert routing_converged(fabric), "stale routes after churn step"
        # Heal everything: full topology state must be exactly rebuilt.
        while down:
            first, second = down.pop()
            fabric.connect(first, second, propagate=False)
            fabric.reroute_component(first)
        assert routing_converged(fabric)

    @pytest.mark.parametrize("seed", [9, 41])
    def test_node_removal_keeps_convergence(self, seed):
        rng = SeededRNG(seed)
        num_nodes = 6
        fabric = RoutingFabric()
        names = [f"n{i}" for i in range(num_nodes)]
        for name in names:
            fabric.add_node(name, Broker(name))
        for first, second in _random_tree_edges(rng.fork("topo"), num_nodes):
            fabric.connect(first, second)
        _populate(fabric, rng.fork("subs"), names, num_subs=40)
        victims = rng.fork("victims").sample(names, 3)
        for victim in victims:
            fabric.remove_node(victim)
            assert routing_converged(fabric)
            assert all(
                home != victim for home, _sub in fabric.homed_subscriptions()
            )


class TestControlPlaneChurnConvergence:
    """Delta-repaired control plane ≡ rebuilt fabric under *mixed* churn.

    PR 5 replaced full component rebuilds with incremental repair (reverse
    route index + pruned-by graph + per-edge issue-order placement).  This
    suite interleaves every control-plane mutation the fabric supports —
    fresh subscribes, unsubscribes, re-issues with changed definitions,
    home moves — with link churn, and asserts after *every* step that the
    delta-repaired snapshot equals a fabric rebuilt from scratch.
    """

    @pytest.mark.parametrize("seed", [5, 23, 77])
    def test_mixed_control_and_link_churn_stays_canonical(self, seed):
        rng = SeededRNG(seed)
        num_nodes = rng.randint(5, 8)
        names = [f"n{i}" for i in range(num_nodes)]
        fabric = RoutingFabric()
        for name in names:
            fabric.add_node(name, Broker(name))
        edges = _random_tree_edges(rng.fork("topo"), num_nodes)
        for first, second in edges:
            fabric.connect(first, second)
        topics = [f"topic{i:02d}" for i in range(6)]
        sub_rng = rng.fork("subs")
        live: dict = {}

        def fresh_subscription(subscription_id=None):
            built = make_subscription(sub_rng, topics, subscriber="user")
            if subscription_id is None:
                return built
            return Subscription(
                event_type=built.event_type,
                predicates=built.predicates,
                subscriber=built.subscriber,
                subscription_id=subscription_id,
            )

        churn_rng = rng.fork("churn")
        down: list = []
        for _step in range(120):
            roll = churn_rng.random()
            if roll < 0.30 or not live:
                subscription = fresh_subscription()
                home = names[churn_rng.randint(0, num_nodes - 1)]
                fabric.subscribe_at(home, subscription)
                live[subscription.subscription_id] = home
            elif roll < 0.45:
                victim = list(live)[churn_rng.randint(0, len(live) - 1)]
                assert fabric.unsubscribe_at(live.pop(victim), victim)
            elif roll < 0.60:
                # Re-issue with a changed definition at the same home.
                target = list(live)[churn_rng.randint(0, len(live) - 1)]
                outcome = fabric.subscribe_at(
                    live[target], fresh_subscription(subscription_id=target)
                )
                assert outcome.replaced
            elif roll < 0.72:
                # Home move: same id re-issued at a different broker.
                target = list(live)[churn_rng.randint(0, len(live) - 1)]
                new_home = names[churn_rng.randint(0, num_nodes - 1)]
                fabric.subscribe_at(
                    new_home, fresh_subscription(subscription_id=target)
                )
                live[target] = new_home
            elif roll < 0.88 and edges:
                first, second = edges.pop(churn_rng.randint(0, len(edges) - 1))
                assert fabric.disconnect(first, second)
                down.append((first, second))
            elif down:
                first, second = down.pop(churn_rng.randint(0, len(down) - 1))
                # The canonical incremental edge-merge — no rebuild pass.
                fabric.connect(first, second)
                edges.append((first, second))
            else:
                continue
            assert routing_converged(fabric), "delta repair diverged after churn step"
        # Heal everything and cross-check against the retained rebuild
        # path: reroute_component must agree with the delta-built state.
        while down:
            first, second = down.pop()
            fabric.connect(first, second)
        delta_snapshot = fabric.routing_snapshot()
        fabric.reroute_component(names[0])
        assert fabric.routing_snapshot() == delta_snapshot
        assert routing_converged(fabric)


class TestClusterChurnConvergence:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_detector_heals_to_rebuilt_state_and_oracle_delivery(self, topology):
        # PYTHONHASHSEED randomizes hash(); derive a stable per-case seed
        # (the "plain" suffix keeps the seeds this case has always used).
        rng = SeededRNG(sum(map(ord, topology + "plain")) % 100_000)
        cluster = BrokerCluster(service_rate=5000.0, link_latency=0.002)
        names = build_cluster_topology(topology, 4, cluster)
        detector = FailureDetector(cluster, period=0.02, timeout=0.07)
        topics = [f"topic{i:02d}" for i in range(10)]
        sub_rng = rng.fork("subs")
        subscriptions = [
            make_subscription(sub_rng, topics, subscriber=f"user{i % 13}")
            for i in range(80)
        ]
        placement_rng = rng.fork("place")
        for subscription in subscriptions:
            cluster.subscribe(
                names[placement_rng.randint(0, len(names) - 1)], subscription
            )
        state_before = cluster.fabric.routing_snapshot()

        detector.start(until=8.0)
        churn_rng = rng.fork("churn")
        at = 0.3
        for _round in range(3):
            victim = names[churn_rng.randint(0, len(names) - 1)]
            cluster.crash_at(at, victim)
            cluster.recover_at(at + 0.4, victim)
            at += 1.0
        cluster.run(until=at + 1.5)

        assert all(
            cluster.overlay_link_is_up(*sorted(pair)) for pair in cluster.intended_links
        )
        assert routing_converged(cluster.fabric)
        assert cluster.fabric.routing_snapshot() == state_before

        # Post-recovery delivery must be exact.
        delivered = {}
        cluster.on_delivery(
            lambda broker, subscriber, event, subscription: delivered.setdefault(
                event.event_id, []
            ).append(subscription.subscription_id)
        )
        event_rng = rng.fork("events")
        events = [make_event(event_rng, topics, timestamp=float(i)) for i in range(30)]
        publish_at = cluster.sim.now
        for event in events:
            publish_at += 0.002
            cluster.publish_at(
                publish_at, names[event_rng.randint(0, len(names) - 1)], event
            )
        cluster.run(until=publish_at + 1.0)
        oracle = MatchingEngine()
        for subscription in subscriptions:
            oracle.add(subscription)
        for event in events:
            expected = sorted(s.subscription_id for s in oracle.match(event))
            assert sorted(delivered.get(event.event_id, [])) == expected
