"""Mesh data plane: cyclic topologies, duplicate suppression, loss math.

The redundant-routing contract: on an ``allow_cycles`` cluster events fan
out over every redundant path, each broker's TTL-bounded
:class:`~repro.cluster.durable.DedupIndex` collapses the re-arrivals, the
observable delivery set stays exactly the single-engine match, and the
suppressed duplicates land in their own ``network.duplicates_suppressed``
metric — never in the loss ledger.
"""

from __future__ import annotations

import pytest

from repro.cluster.broker_cluster import (
    BrokerCluster,
    CYCLIC_TOPOLOGIES,
    build_cluster_topology,
    topology_edges,
    topology_is_cyclic,
)
from repro.cluster.recovery import routing_converged
from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Operator, Predicate, Subscription
from repro.sim.rng import SeededRNG


def _subscribed_cluster(topology: str, num_brokers: int):
    cluster = BrokerCluster(allow_cycles=True)
    names = build_cluster_topology(topology, num_brokers, cluster)
    deliveries = []
    cluster.on_delivery(
        lambda broker, subscriber, event, subscription: deliveries.append(
            (broker, event.event_id, subscription.subscription_id)
        )
    )
    return cluster, names, deliveries


class TestCyclicTopologies:
    def test_ring_and_mesh_edges_are_cyclic(self):
        for topology in CYCLIC_TOPOLOGIES:
            assert topology_is_cyclic(topology)
            edges = topology_edges(topology, 5)
            # |E| >= |V| guarantees at least one cycle on a connected graph.
            assert len(edges) >= 5, f"{topology} on 5 brokers is not cyclic"
        assert not topology_is_cyclic("line")

    def test_ring_degenerates_to_line_below_three(self):
        assert topology_edges("ring", 2) == topology_edges("line", 2)

    def test_mesh_has_chords_beyond_the_ring(self):
        ring = set(map(tuple, map(sorted, topology_edges("ring", 6))))
        mesh = set(map(tuple, map(sorted, topology_edges("mesh", 6))))
        assert ring < mesh

    def test_cyclic_topology_requires_allow_cycles(self):
        with pytest.raises(ValueError, match="allow_cycles"):
            build_cluster_topology("ring", 4, BrokerCluster())

    @pytest.mark.parametrize("topology", CYCLIC_TOPOLOGIES)
    def test_cyclic_build_is_rebuilt_clean(self, topology):
        cluster, names, _ = _subscribed_cluster(topology, 5)
        for index, name in enumerate(names):
            cluster.subscribe(
                name, Subscription(event_type="msg", subscriber=f"s{index}")
            )
        assert routing_converged(cluster.fabric)


class TestDuplicateSuppression:
    def test_ring_delivers_once_and_suppresses_the_echo(self):
        cluster, names, deliveries = _subscribed_cluster("ring", 5)
        sub = Subscription(event_type="msg", subscriber="alice")
        cluster.subscribe("b2", sub)
        cluster.publish("b0", Event(event_type="msg", attributes={"k": 1}))
        cluster.run()
        assert len(deliveries) == 1
        # The event reaches b2 along both ring arcs; one arrival wins.
        assert cluster.network.duplicates_suppressed >= 1
        counters = cluster.metrics.snapshot()["counters"]
        assert counters["network.duplicates_suppressed"] >= 1

    def test_suppression_is_not_a_loss(self):
        cluster, names, _ = _subscribed_cluster("ring", 5)
        dropped = []
        cluster.network.add_drop_listener(lambda message: dropped.append(message))
        cluster.subscribe("b2", Subscription(event_type="msg", subscriber="a"))
        cluster.publish("b0", Event(event_type="msg", attributes={}))
        cluster.run()
        assert cluster.network.duplicates_suppressed >= 1
        assert not dropped, "a suppressed duplicate fired the drop listeners"
        assert cluster.network.messages_dropped == 0
        counters = cluster.metrics.snapshot()["counters"]
        assert counters.get("network.messages_dropped", 0) == 0

    def test_delivery_survives_link_loss_via_redundant_path(self):
        cluster, names, deliveries = _subscribed_cluster("ring", 4)
        cluster.subscribe("b2", Subscription(event_type="msg", subscriber="a"))
        cluster.fail_link("b1", "b2")
        cluster.publish("b0", Event(event_type="msg", attributes={}))
        cluster.run()
        assert [d[1:] for d in deliveries] != [], "redundant path did not deliver"
        assert len(deliveries) == 1
        assert routing_converged(cluster.fabric)

    def test_restore_link_readds_redundant_edge(self):
        cluster, names, _ = _subscribed_cluster("ring", 4)
        before = set(map(tuple, map(sorted, cluster.fabric.edges())))
        cluster.fail_link("b1", "b2")
        cluster.restore_link("b1", "b2")
        after = set(map(tuple, map(sorted, cluster.fabric.edges())))
        # On a mesh the healed edge comes back even though a path exists:
        # redundancy is the point.
        assert after == before
        assert routing_converged(cluster.fabric)

    def test_dedup_is_attempt_scoped(self):
        """A replay (attempt+1) of an already-seen event traverses the
        mesh again — broker dedup must not eat redeliveries."""
        cluster, names, deliveries = _subscribed_cluster("ring", 4)
        cluster.subscribe("b2", Subscription(event_type="msg", subscriber="a"))
        event = Event(event_type="msg", attributes={})
        cluster.publish("b0", event)
        cluster.run()
        cluster.publish("b0", event, attempt=1)
        cluster.run()
        assert len(deliveries) == 2, "attempt-scoped replay was suppressed"


class TestLinkEventCallbacks:
    def test_fail_and_restore_fire_callbacks(self):
        cluster, names, _ = _subscribed_cluster("ring", 4)
        seen = []
        cluster.on_link_event(
            lambda kind, first, second, at: seen.append((kind, first, second))
        )
        cluster.fail_link("b0", "b1")
        cluster.restore_link("b0", "b1")
        assert seen == [("failed", "b0", "b1"), ("restored", "b0", "b1")]


class TestNestedRangeChurn:
    """Covering over numeric ranges on a ring, held to the rebuild oracle.

    The other churn suites draw ``EQ`` / ``>=`` populations, where the
    covering index's bounds filter has nothing to reject.  This is the
    repo benchmark's ``sim_churn`` shape at 1/20 scale: residents are
    nested price ranges per (topic, family); each step subscribes covers
    wider than a whole family plus victims nested inside the *previous*
    step's covers, then retracts the previous batch — so victims are
    pruned on arrival and readmitted a step later.
    """

    TOPICS, FAMILIES, LEVELS, LEVEL_STEP = 40, 2, 5, 4

    @staticmethod
    def _range(sid, topic, centre, half):
        return Subscription(
            event_type="tick",
            predicates=(
                Predicate("topic", Operator.EQ, topic),
                Predicate("price", Operator.GE, float(centre - half)),
                Predicate("price", Operator.LE, float(centre + half)),
            ),
            subscriber="u",
            subscription_id=sid,
        )

    @staticmethod
    def _assert_tables_minimal(fabric, issued, note):
        """Brute force, no index: the rebuild oracle shares the covering
        index with the fabric it checks, so hold each edge table to the
        placement rule directly — no entry is covered by an earlier-issued
        entry of the same table."""
        for node, tables in fabric.routing_snapshot().items():
            for via, ids in tables.items():
                by_topic = {}
                for sid in ids:
                    by_topic.setdefault(issued[sid][1].predicates[0].value, []).append(sid)
                for group in by_topic.values():
                    for sid in group:
                        seq, sub = issued[sid]
                        covers = [
                            other
                            for other in group
                            if issued[other][0] < seq and issued[other][1].covers(sub)
                        ]
                        assert not covers, f"{note}: {sid} kept at {node}->{via} under {covers}"

    @pytest.mark.parametrize("seed", [3, 4])
    def test_retract_and_readmit_stay_canonical(self, seed):
        rng = SeededRNG(seed)
        cluster = BrokerCluster(allow_cycles=True)
        names = build_cluster_topology("ring", 6, cluster)
        fabric = cluster.fabric
        fabric.verify_repairs = True
        step_size = self.LEVEL_STEP
        families = [
            (f"t{topic:02d}", 100 + 200 * family)
            for topic in range(self.TOPICS)
            for family in range(self.FAMILIES)
        ]
        residents = [
            (topic, centre, level)
            for topic, centre in families
            for level in range(self.LEVELS)
        ]
        rng.shuffle(residents)
        placement = {name: [] for name in names}
        for index, (topic, centre, level) in enumerate(residents):
            placement[names[index % len(names)]].append(
                self._range(f"s{index:04d}", topic, centre, (level + 1) * step_size)
            )
        issued = {}
        for name in names:
            cluster.subscribe_many(name, placement[name])
            for sub in placement[name]:
                issued[sub.subscription_id] = (len(issued), sub)
        assert fabric.routing_snapshot() == fabric.rebuilt_snapshot(), f"seed={seed}"
        self._assert_tables_minimal(fabric, issued, f"seed={seed} residents")

        readmitted = cluster.metrics.counter("overlay.routes_readmitted")
        previous_home, previous_batch, previous_covers = names[0], [], []
        for step in range(10):
            home = names[step % len(names)]
            covers = rng.sample(families, 5)
            batch = [
                self._range(
                    f"c{step:02d}-{offset}", topic, centre,
                    (self.LEVELS + 2 + offset % 3) * step_size,
                )
                for offset, (topic, centre) in enumerate(covers)
            ]
            # Beyond the widest resident and inside last step's covers,
            # touching the upper (even offsets) or lower edge of the
            # narrowest one: equal bounds must still prune.
            edge = (self.LEVELS + 2) * step_size - 1
            batch += [
                self._range(
                    f"n{step:02d}-{offset}", topic,
                    centre + (edge if offset % 2 == 0 else -edge), 1,
                )
                for offset, (topic, centre) in enumerate(previous_covers)
            ]
            cluster.subscribe_many(home, batch)
            for sub in batch:
                issued[sub.subscription_id] = (len(issued), sub)
            note = f"seed={seed} step={step}"
            assert fabric.routing_snapshot() == fabric.rebuilt_snapshot(), note
            self._assert_tables_minimal(fabric, issued, note)
            results = cluster.unsubscribe_many(
                previous_home, [sub.subscription_id for sub in previous_batch]
            )
            assert all(results), note
            assert fabric.routing_snapshot() == fabric.rebuilt_snapshot(), note
            self._assert_tables_minimal(fabric, issued, note)
            previous_home, previous_batch, previous_covers = home, batch, covers
        assert readmitted.value > 0, f"seed={seed}: no victim was ever readmitted"
        assert fabric.total_routing_state() < 6 * len(residents), (
            f"seed={seed}: covering pruned nothing"
        )
