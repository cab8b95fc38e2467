"""Batched data plane ≡ per-event path ≡ single-engine oracle.

``publish_many`` enqueues a whole batch as one mailbox entry, matches it
through the engine's batched (probe-cached) path and coalesces forwards
per next-hop link — none of which may change *what* is delivered.  This
suite pins, over seeded random workloads:

* batched delivery sets equal the per-event path (same publish times)
  and the single-engine oracle across topologies and covering-aware
  ingress merging;
* the route-set cache is safe under mid-batch control-plane mutation: a
  subscription retracted from a delivery callback between one batch
  member's match and the next member's forward must stop forwarding
  immediately (the versioned-cache regression);
* ``unsubscribe_many`` is snapshot-identical to retracting in a loop
  (readmission flushed once per edge, cross-checked by the
  ``verify_repairs`` oracle);
* a crashed in-service *batch* is counted lost per member event (and a
  drop-policy mailbox loses queued batch entries per event);
* coalescing is visible on the wire — one ``event.forward_batch``
  message per link per cycle — while deliveries stay per-event;
* under crash/recovery churn, full-sampling loss attribution stays
  ``fully_attributed`` on the batched path and a post-heal batched wave
  is byte-identical to the oracle.
"""

from __future__ import annotations

import pytest

from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.cluster.routing import RoutingFabric
from repro.experiments.substrate import make_event, make_subscription
from repro.obs.loss import attribute_losses
from repro.obs.trace import Tracer
from repro.pubsub.broker import Broker
from repro.pubsub.events import Event
from repro.pubsub.matching import (
    MatchingEngine,
    NaiveMatchingEngine,
    RouteProbeCache,
)
from repro.pubsub.subscriptions import (
    Operator,
    Predicate,
    Subscription,
    topic_subscription,
)
from repro.sim.rng import SeededRNG

TOPOLOGIES = ["line", "star", "tree"]


def _workload(rng, num_subs, num_events, num_topics=12):
    topics = [f"topic{i:02d}" for i in range(num_topics)]
    sub_rng = rng.fork("subs")
    subscriptions = [
        make_subscription(sub_rng, topics, subscriber=f"user{i % 17}")
        for i in range(num_subs)
    ]
    event_rng = rng.fork("events")
    events = [
        make_event(event_rng, topics, timestamp=float(i)) for i in range(num_events)
    ]
    return subscriptions, events


def _place(cluster, names, rng, subscriptions):
    placement_rng = rng.fork("placement")
    placed = {}
    for subscription in subscriptions:
        home = names[placement_rng.randint(0, len(names) - 1)]
        cluster.subscribe(home, subscription)
        placed[subscription.subscription_id] = home
    return placed


def _collect(cluster):
    delivered = {}
    cluster.on_delivery(
        lambda broker, subscriber, event, subscription: delivered.setdefault(
            event.event_id, []
        ).append(subscription.subscription_id)
    )
    return delivered


def _publish_schedule(rng, events, batch):
    """Chunk events into (time, ingress index, chunk) batches with seeded
    arrival jitter — the schedule both paths must follow exactly.  The
    ingress is an abstract index so one schedule can drive several
    clusters (anchor with ``names[idx % len(names)]``)."""
    publish_rng = rng.fork("publish")
    schedule = []
    at = 0.0
    for start in range(0, len(events), batch):
        chunk = events[start : start + batch]
        at += publish_rng.expovariate(500.0)
        schedule.append((at, publish_rng.randint(0, 10_000), chunk))
    return schedule


def _run(cluster, schedule, batched):
    delivered = _collect(cluster)
    for at, ingress, chunk in schedule:
        if batched:
            cluster.publish_many_at(at, ingress, chunk)
        else:
            for event in chunk:
                cluster.publish_at(at, ingress, event)
    cluster.run()
    return {event_id: sorted(ids) for event_id, ids in delivered.items()}


def _oracle_sets(subscriptions, events, removed=()):
    oracle = MatchingEngine()
    for subscription in subscriptions:
        if subscription.subscription_id not in removed:
            oracle.add(subscription)
    return {
        event.event_id: sorted(s.subscription_id for s in oracle.match(event))
        for event in events
        if oracle.match(event)
    }


def _cluster(**kwargs):
    kwargs.setdefault("service_rate", 5000.0)
    kwargs.setdefault("link_latency", 0.001)
    return BrokerCluster(**kwargs)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("batch", [3, 16])
    def test_batched_matches_per_event_and_oracle(self, topology, batch):
        rng = SeededRNG(23)
        subscriptions, events = _workload(rng, num_subs=150, num_events=80)
        schedule = _publish_schedule(rng, events, batch)
        runs = {}
        for batched in (False, True):
            run_rng = SeededRNG(23)
            cluster = _cluster()
            names = build_cluster_topology(topology, 5, cluster)
            _place(cluster, names, run_rng.fork("place"), subscriptions)
            # Re-anchor the schedule's ingress names onto this cluster.
            anchored = [
                (at, names[idx % len(names)], chunk)
                for (at, idx, chunk) in schedule
            ]
            runs[batched] = _run(cluster, anchored, batched)
            if batched:
                assert cluster.metrics.counter("cluster.events_forwarded").value > 0
        assert runs[True] == runs[False]
        assert runs[True] == _oracle_sets(subscriptions, events)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_batched_with_unsubscribe_many_churn(self, topology):
        """Batch retractions mid-stream keep the oracle equality."""
        rng = SeededRNG(71)
        subscriptions, events = _workload(rng, num_subs=120, num_events=60)
        cluster = _cluster()
        names = build_cluster_topology(topology, 4, cluster)
        placed = _place(cluster, names, rng.fork("place"), subscriptions)
        churn_rng = rng.fork("churn")
        victims = [
            subscriptions[churn_rng.randint(0, len(subscriptions) - 1)]
            for _ in range(50)
        ]
        removed = set()
        by_home = {}
        for victim in victims:
            if victim.subscription_id in removed:
                continue
            removed.add(victim.subscription_id)
            by_home.setdefault(placed[victim.subscription_id], []).append(
                victim.subscription_id
            )
        for home, ids in sorted(by_home.items()):
            assert cluster.unsubscribe_many(home, ids) == [True] * len(ids)
        schedule = _publish_schedule(rng, events, 8)
        anchored = [
            (at, names[idx % len(names)], chunk) for (at, idx, chunk) in schedule
        ]
        delivered = _run(cluster, anchored, batched=True)
        assert delivered == _oracle_sets(subscriptions, events, removed)

    def test_merge_ingress(self):
        rng = SeededRNG(83)
        subscriptions, events = _workload(rng, num_subs=160, num_events=60)
        cluster = _cluster(merge_ingress=True)
        names = build_cluster_topology("tree", 5, cluster)
        _place(cluster, names, rng.fork("place"), subscriptions)
        schedule = _publish_schedule(rng, events, 10)
        anchored = [
            (at, names[idx % len(names)], chunk) for (at, idx, chunk) in schedule
        ]
        delivered = _run(cluster, anchored, batched=True)
        assert delivered == _oracle_sets(subscriptions, events)


class TestMidBatchMutation:
    def test_retraction_between_match_and_forward_invalidates_route_cache(self):
        """A delivery callback retracting a remote subscription mid-batch
        must stop that batch's later forwards: each member resolves its
        next hops at its own point in the service order through the
        versioned route cache, exactly as the sequential path would."""
        cluster = _cluster()
        names = build_cluster_topology("line", 2, cluster)
        ingress, remote = names
        local_sub = topic_subscription(
            "news.story", "topic", "sports", subscriber="local"
        )
        remote_sub = topic_subscription(
            "news.story", "topic", "sports", subscriber="remote"
        )
        cluster.subscribe(ingress, local_sub)
        cluster.subscribe(remote, remote_sub)

        def _sports(i):
            return Event(
                event_type="news.story",
                attributes={"topic": "sports"},
                event_id=f"e{i}",
            )

        # Warm the route cache: e0 forwards ingress -> remote.
        warm = _sports(0)
        received = {}
        cluster.on_delivery(
            lambda broker, subscriber, event, subscription: received.setdefault(
                subscriber, []
            ).append(event.event_id)
        )
        cluster.publish(ingress, warm)
        cluster.run()
        assert received == {"local": ["e0"], "remote": ["e0"]}

        def retract_on_first_delivery(broker, subscriber, event, subscription):
            if subscriber == "local" and event.event_id == "e1":
                assert cluster.unsubscribe(remote, remote_sub.subscription_id)

        cluster.on_delivery(retract_on_first_delivery)
        cluster.publish_many(ingress, [_sports(1), _sports(2)])
        cluster.run()
        # e1's local delivery retracted the remote subscription before
        # e1's (and e2's) fan-out: a stale cached route-set would still
        # forward both; the versioned cache must forward neither.
        assert received["local"] == ["e0", "e1", "e2"]
        assert received["remote"] == ["e0"]
        assert cluster.metrics.counter("cluster.events_forwarded").value == 1


class TestBatchedRetractionSnapshot:
    @pytest.mark.parametrize("merge_ingress", [False, True])
    @pytest.mark.parametrize("seed", [5, 31])
    def test_unsubscribe_many_matches_retract_loop(self, seed, merge_ingress):
        # One shared workload: subscription ids are auto-generated, so
        # both fabrics must see the *same* Subscription objects placed in
        # the same issue order for their states to be comparable.
        rng = SeededRNG(seed)
        topics = [f"topic{i:02d}" for i in range(6)]
        sub_rng = rng.fork("subs")
        subscriptions = [
            make_subscription(sub_rng, topics, subscriber=f"user{i % 5}")
            for i in range(80)
        ]
        homes = ("a", "b", "c", "d")
        place_rng = rng.fork("place")
        placed = [
            (homes[place_rng.randint(0, 3)], subscription)
            for subscription in subscriptions
        ]
        victim_rng = rng.fork("victims")
        victims = {}
        for _ in range(40):
            home, subscription = placed[victim_rng.randint(0, len(placed) - 1)]
            victims.setdefault(home, []).append(subscription.subscription_id)

        def build():
            fabric = RoutingFabric(
                verify_repairs=True, merge_ingress=merge_ingress
            )
            for name in homes:
                fabric.add_node(name, Broker(name))
            fabric.connect("a", "b")
            fabric.connect("b", "c")
            fabric.connect("b", "d")
            for home, subscription in placed:
                fabric.subscribe_at(home, subscription)
            return fabric

        looped = build()
        loop_results = {
            home: [looped.unsubscribe_at(home, sid) for sid in ids]
            for home, ids in sorted(victims.items())
        }
        batched = build()
        batch_results = {
            home: batched.unsubscribe_many_at(home, ids)
            for home, ids in sorted(victims.items())
        }
        assert batch_results == loop_results
        # verify_repairs already cross-checked every mutation against the
        # rebuilt oracle; pin the end states against each other too.
        assert batched.routing_snapshot() == looped.routing_snapshot()
        assert batched.routing_snapshot() == batched.rebuilt_snapshot()


class TestBatchCrashAccounting:
    def test_crash_loses_in_service_batch_per_event(self):
        cluster = _cluster(service_rate=100.0)
        build_cluster_topology("line", 1, cluster)
        events = [
            Event(event_type="t", attributes={"n": i}, event_id=f"e{i}")
            for i in range(8)
        ]
        assert cluster.publish_many("b0", events) == 8
        # Service begins at t=0 and takes 8/100 s; crash mid-cycle.
        cluster.crash_at(0.01, "b0")
        cluster.run()
        assert cluster.metrics.counter("cluster.events_lost").value == 8
        assert cluster.brokers["b0"].stats.events_lost == 8

    def test_drop_policy_loses_queued_batch_entries_per_event(self):
        cluster = _cluster(service_rate=100.0, mailbox_policy="drop")
        build_cluster_topology("line", 1, cluster)
        first = [Event(event_type="t", attributes={}, event_id=f"a{i}") for i in range(4)]
        second = [Event(event_type="t", attributes={}, event_id=f"b{i}") for i in range(6)]
        cluster.publish_many("b0", first)
        cluster.publish_many("b0", second)
        # The first batch is drawn into service at t=0 (batch_size counts
        # mailbox entries, so one publish_many entry serves whole); the
        # second batch entry is still queued when the crash lands.
        assert cluster.brokers["b0"].queue_depth in (6, 10)
        cluster.crash_at(0.005, "b0")
        cluster.run()
        assert cluster.metrics.counter("cluster.events_lost").value == 10
        assert cluster.brokers["b0"].queue_depth == 0


class TestCoalescedForwarding:
    def test_one_forward_batch_message_per_link_per_cycle(self):
        cluster = _cluster()
        names = build_cluster_topology("line", 2, cluster)
        ingress, remote = names
        subs = [
            topic_subscription(
                "news.story", "topic", "sports", subscriber=f"u{i}"
            )
            for i in range(3)
        ]
        for sub in subs:
            cluster.subscribe(remote, sub)
        events = [
            Event(
                event_type="news.story",
                attributes={"topic": "sports"},
                event_id=f"e{i}",
            )
            for i in range(5)
        ]
        delivered = _collect(cluster)
        cluster.publish_many(ingress, events)
        cluster.run()
        # One coalesced message crossed the link; deliveries, forward
        # counters and loss accounting all stay per-event.
        assert cluster.network.kind_message_count("event.forward_batch") == 1
        assert cluster.network.kind_message_count("event.forward") == 0
        assert cluster.metrics.counter("cluster.events_forwarded").value == 5
        assert len(delivered) == 5
        assert all(len(ids) == 3 for ids in delivered.values())

    def test_singleton_forward_keeps_legacy_wire_shape(self):
        cluster = _cluster()
        names = build_cluster_topology("line", 2, cluster)
        ingress, remote = names
        cluster.subscribe(
            remote,
            topic_subscription("news.story", "topic", "sports", subscriber="u"),
        )
        cluster.publish_many(
            ingress,
            [
                Event(
                    event_type="news.story",
                    attributes={"topic": "sports"},
                    event_id="only",
                )
            ],
        )
        cluster.run()
        assert cluster.network.kind_message_count("event.forward") == 1
        assert cluster.network.kind_message_count("event.forward_batch") == 0


class TestBatchedChurnAttribution:
    def test_crash_recovery_churn_fully_attributed_and_post_heal_oracle(self):
        rng = SeededRNG(131)
        subscriptions, events = _workload(rng, num_subs=80, num_events=60)
        tracer = Tracer(sample_every=1)
        cluster = _cluster(tracer=tracer)
        names = build_cluster_topology("line", 3, cluster)
        _place(cluster, names, rng.fork("place"), subscriptions)
        delivered = _collect(cluster)
        schedule = _publish_schedule(rng, events, 6)
        anchored = [
            (at, names[idx % len(names)], chunk) for (at, idx, chunk) in schedule
        ]
        mid = anchored[len(anchored) // 2][0]
        cluster.crash_at(mid, names[1])
        cluster.recover_at(mid + 0.05, names[1])
        for at, ingress, chunk in anchored:
            cluster.publish_many_at(at, ingress, chunk)
        cluster.run()
        expected = _oracle_sets(subscriptions, events)
        got = {event_id: sorted(ids) for event_id, ids in delivered.items()}
        report = attribute_losses(tracer, expected, got)
        # Full sampling on the batched path: every lost delivery must
        # carry a drop-span explanation (crashed batch, dropped
        # forward_batch toward the dead broker, at-risk serve).
        assert report.fully_attributed, report.summary()
        assert not report.untraced_losses
        # Post-heal, a fresh batched wave is byte-identical to the oracle.
        wave_rng = rng.fork("wave")
        topics = [f"topic{i:02d}" for i in range(12)]
        wave = [
            make_event(wave_rng, topics, timestamp=1000.0 + i) for i in range(30)
        ]
        heal_at = cluster.sim.now + 1.0
        wave_delivered = {}
        cluster.on_delivery(
            lambda broker, subscriber, event, subscription: wave_delivered.setdefault(
                event.event_id, []
            ).append(subscription.subscription_id)
            if event.timestamp >= 1000.0
            else None
        )
        for start in range(0, len(wave), 8):
            cluster.publish_many_at(
                heal_at + start * 0.01, names[start % 3], wave[start : start + 8]
            )
        cluster.run()
        assert {
            event_id: sorted(ids) for event_id, ids in wave_delivered.items()
        } == _oracle_sets(subscriptions, wave)


class TestCachedForwardingProbes:
    """``matches_any_cached`` ≡ ``matches_any`` ≡ the naive oracle.

    The forwarding decision answered through a :class:`RouteProbeCache`
    must agree with the uncached boolean on every event, across mixed
    predicate shapes (equality, ranges, NE, EXISTS, conjunctions) and
    through engine mutations that must invalidate the cached tables.
    """

    @staticmethod
    def _random_subscription(rng, index):
        ops = [
            Operator.EQ,
            Operator.NE,
            Operator.GE,
            Operator.LE,
            Operator.GT,
            Operator.LT,
            Operator.EXISTS,
        ]
        predicates = []
        seen = set()
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(["topic", "priority", "source", "region"])
            op = rng.choice(ops)
            if (name, op) in seen:
                continue
            seen.add((name, op))
            if name == "topic":
                value = f"t{rng.randint(0, 20)}"
            elif name == "source":
                value = rng.choice(["ABC", "CNN", "BBC"])
            elif name == "region":
                value = rng.choice(["eu", "us"])
            else:
                value = rng.randint(1, 10)
            if op in (Operator.GE, Operator.LE, Operator.GT, Operator.LT) and not isinstance(value, int):
                op = Operator.EQ
            predicates.append(Predicate(name, op, value))
        return Subscription(
            event_type="news.story",
            predicates=tuple(predicates),
            subscriber=f"user{index}",
        )

    @staticmethod
    def _random_event(rng, timestamp):
        attributes = {
            "topic": f"t{rng.randint(0, 25)}",
            "priority": rng.randint(0, 12),
        }
        if rng.random() < 0.5:
            attributes["source"] = rng.choice(["ABC", "CNN", "BBC", "NHK"])
        if rng.random() < 0.3:
            attributes["region"] = rng.choice(["eu", "us", "ap"])
        return Event(
            event_type="news.story", attributes=attributes, timestamp=timestamp
        )

    def test_cached_probe_matches_uncached_under_mutation(self):
        rng = SeededRNG(137)
        for trial in range(60):
            engine = MatchingEngine()
            naive = NaiveMatchingEngine()
            live = [
                self._random_subscription(rng, i)
                for i in range(rng.randint(1, 30))
            ]
            for subscription in live:
                engine.add(subscription)
                naive.add(subscription)
            cache = RouteProbeCache()
            for step in range(40):
                event = self._random_event(rng, float(step))
                uncached = engine.matches_any(event)
                assert engine.matches_any_cached(event, cache) == uncached
                assert naive.matches_any(event) == uncached
                # Mid-stream churn: the mutation-version check must drop
                # stale probe tables on the very next probe.
                if step % 13 == 7 and live:
                    victim = live.pop(rng.randint(0, len(live) - 1))
                    engine.remove(victim.subscription_id)
                    naive.remove(victim.subscription_id)
                if step % 11 == 5:
                    fresh = self._random_subscription(rng, 1000 + step)
                    live.append(fresh)
                    engine.add(fresh)
                    naive.add(fresh)

    def test_cache_survives_engine_swap(self):
        """Reusing one cache across distinct engines must never leak
        answers between them (identity check in ``table_for``)."""
        rng = SeededRNG(139)
        cache = RouteProbeCache()
        first = MatchingEngine()
        first.add(topic_subscription("news.story", "topic", "t1", subscriber="a"))
        hot = Event(
            event_type="news.story", attributes={"topic": "t1"}, timestamp=0.0
        )
        assert first.matches_any_cached(hot, cache)
        second = MatchingEngine()
        second.add(topic_subscription("news.story", "topic", "t2", subscriber="b"))
        assert not second.matches_any_cached(hot, cache)
        assert second.matches_any_cached(
            Event(
                event_type="news.story", attributes={"topic": "t2"}, timestamp=0.0
            ),
            cache,
        )

    def test_unhashable_attribute_falls_back(self):
        """An unhashable attribute value bypasses the cache and defers to
        ``matches_any`` — whose index probe rejects it the same way on
        both paths (consistent behavior, no cache pollution)."""
        engine = MatchingEngine()
        engine.add(topic_subscription("news.story", "topic", "t1", subscriber="a"))
        cache = RouteProbeCache()
        weird = Event(
            event_type="news.story",
            # The unhashable attribute comes first so the cached path hits
            # it before any single item can complete a subscription.
            attributes={"tags": ["x", "y"], "topic": "t1"},
            timestamp=0.0,
        )
        with pytest.raises(TypeError):
            engine.matches_any(weird)
        with pytest.raises(TypeError):
            engine.matches_any_cached(weird, cache)
        # The failed probe must not have poisoned the cached tables.
        hot = Event(
            event_type="news.story", attributes={"topic": "t1"}, timestamp=0.0
        )
        assert engine.matches_any_cached(hot, cache)
