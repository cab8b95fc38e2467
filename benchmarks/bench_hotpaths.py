"""Hot-path micro-benchmarks (perf-regression harness).

These pin the cost of the two inner loops everything else sits on:

* inverted-index mutation churn (add/remove cycles, as the crawler
  re-indexes pages and spam pages are dropped);
* analyzer throughput on repeated text (the memoized tokenize+stem path);
* BM25 top-k ranking over a mid-sized archive (the video-story ranking
  path of experiment E2);
* single-event subscription matching (the §5.3 substrate hot loop);
* range-heavy matching, where every subscription carries inequality
  predicates only and the engine runs its counting indexes;
* selective-equality matching under wide ranges (PR 14): a topic ``EQ``
  anchors each subscription and the broad ``priority`` / ``price``
  constraints are checked only for the candidates the topic selects;
* sequential single-engine publishing, the baseline of the cluster
  layer (PR 2; see the "Cluster layer" section of PERFORMANCE.md);
* the message plane's routed publish path (mailboxes + content-routed
  forwarding over simulated links) (PR 3; see "Message plane");
* the fault-tolerance machinery: one full crash → detect → repair →
  failback cycle with thousands of subscriptions of routing state to
  rebuild (PR 4; see "Failure & churn");
* the control-plane fast path: unsubscribe/re-issue churn against tens
  of thousands of routed subscriptions, bounded by the reverse route
  index and pruned-by graph instead of full-table covers() sweeps
  (PR 5; see "Control plane");
* the million-subscription engine: a full 1M-subscription resident set
  (interned predicate pool + columnar slot storage) with RSS and
  subscribe/unsubscribe latency recorded, and batched advertisement
  placement versus a subscribe loop at 100k (PR 6; see "Scale");
* the batched data plane: ``publish_many`` through the routed cluster
  (one mailbox entry per batch, cached route sets, coalesced per-link
  forwards) versus the sequential per-event publish at 10k+ events
  (PR 8; see "Data plane");
* the wire codec's share of one broker hop: a 32-member ``forward_batch``
  decoded, validated and re-emitted as the onward batch plus 32 ``event``
  pushes, with the event members spliced from the received bytes
  (PR 15; see "Wire transport / Encode once");
* the egress hop and its subscriber: the same batch pushed to one session
  as a single ``event_batch`` frame and decoded into 32 deliveries, with
  the 32-``event``-frame equivalent timed beside it (PR 19; see "Wire
  transport / Batched delivery push");
* the covering index's worst bucket: 10 000 ``EQ``-free price ranges
  under one ``(signature, fingerprint)`` key, scanned linearly with the
  numeric-bounds filter in front of ``covers()`` (PR 16; see "Control
  plane / Range-aware covering index").

Run ``python benchmarks/run_hotpath_bench.py --label <name>`` to record a
named snapshot (``prN`` labels land in ``BENCH_PRN.json``); see
PERFORMANCE.md.
"""

from __future__ import annotations

import itertools

from repro.experiments.substrate import make_event, make_subscription
from repro.ir.index import Document, InvertedIndex
from repro.ir.ranking import BM25Ranker
from repro.ir.tokenize import TextAnalyzer
from repro.pubsub.events import Event
from repro.pubsub.matching import MatchingEngine
from repro.pubsub.subscriptions import Operator, Predicate, Subscription
from repro.sim.rng import SeededRNG, ZipfSampler


def _gc_setup() -> None:
    """``benchmark.pedantic(setup=...)`` treats a truthy return as fixture
    arguments, and ``gc.collect`` returns the collected-object count —
    wrap it so a busy collector cannot crash the round."""
    import gc

    gc.collect()


def _synthetic_documents(
    num_docs: int, vocab_size: int = 1200, words_per_doc: int = 100, seed: int = 17
):
    """Zipf-distributed synthetic documents (realistic term skew)."""
    rng = SeededRNG(seed)
    sampler = ZipfSampler(vocab_size, 1.05, rng.fork("zipf"))
    vocabulary = [f"term{i:04d}" for i in range(vocab_size)]
    documents = []
    for index in range(num_docs):
        words = [vocabulary[sampler.sample()] for _ in range(words_per_doc)]
        documents.append(Document(doc_id=f"doc{index:05d}", text=" ".join(words)))
    return documents


def _build_index(num_docs: int) -> InvertedIndex:
    index = InvertedIndex()
    for document in _synthetic_documents(num_docs):
        index.add(document)
    return index


def test_hp_index_add_remove_churn(benchmark):
    """Remove + re-add a batch of documents against a 1.5k-doc index.

    The seed ``remove()`` scanned the whole vocabulary per call; the
    optimized index walks only the document's own terms.
    """
    index = _build_index(1500)
    churn = [index.document(f"doc{i:05d}") for i in range(0, 1500, 15)]

    def run():
        for document in churn:
            index.remove(document.doc_id)
        for document in churn:
            index.add(document)
        return index.num_documents

    result = benchmark(run)
    assert result == 1500


def test_hp_bm25_topk_rank(benchmark):
    """BM25 top-10 over a 2k-document archive with an 8-term query."""
    index = _build_index(2000)
    ranker = BM25Ranker(index)
    # Mid-frequency terms: selective enough to score, common enough to
    # produce large candidate sets (the expensive case for full sorting).
    query = [f"term{i:04d}" for i in (3, 7, 12, 20, 33, 50, 80, 130)]

    results = benchmark(lambda: ranker.rank(query, limit=10))
    assert len(results) == 10
    assert results[0].rank == 1


def test_hp_single_event_match(benchmark):
    """One event against 10k mixed equality/range subscriptions (§5.3)."""
    rng = SeededRNG(23)
    topics = [f"topic{i:03d}" for i in range(50)]
    engine = MatchingEngine()
    for index in range(10_000):
        engine.add(make_subscription(rng, topics, subscriber=f"user{index % 200}"))
    event = make_event(rng, topics, timestamp=0.0)

    matched = benchmark(lambda: engine.match(event))
    assert isinstance(matched, list)


def test_hp_range_heavy_match(benchmark):
    """One event against 5k subscriptions that are *all* range predicates.

    No equality predicates at all, so the seed engine degenerated to a
    linear scan with two ``Predicate.matches`` calls per subscription; the
    optimized engine answers each bound with a bisect over a sorted index.
    """
    rng = SeededRNG(31)
    engine = MatchingEngine()
    for index in range(5_000):
        low = rng.randint(0, 500)
        high = low + rng.randint(10, 200)
        engine.add(
            Subscription(
                event_type="ticker.quote",
                predicates=(
                    Predicate("price", Operator.GE, low),
                    Predicate("price", Operator.LT, high),
                ),
                subscriber=f"trader{index % 100}",
            )
        )
    event = Event(event_type="ticker.quote", attributes={"price": 250, "venue": "X"})

    matched = benchmark(lambda: engine.match(event))
    assert len(matched) > 0
    assert all(sub.matches(event) for sub in matched)


def test_hp_selective_eq_wide_range_match(benchmark):
    """One event against 8k subscriptions: a selective topic ``EQ`` each,
    30 % with ``priority >= n`` and 50 % with a ``price`` range.

    The shape the paper's automatic subscriptions have.  Counting touched
    every subscription whose wide range the event satisfied (thousands);
    the anchor index checks the residual of the ~200 on the event's topic.
    Each call matches a different event (fresh values, cycling through
    4096), so no result cache can answer.
    """
    rng = SeededRNG(37)
    topics = [f"topic{i:02d}" for i in range(40)]
    engine = MatchingEngine()
    for index in range(8_000):
        predicates = [Predicate("topic", Operator.EQ, rng.choice(topics))]
        if rng.random() < 0.3:
            predicates.append(Predicate("priority", Operator.GE, rng.randint(0, 9)))
        if rng.random() < 0.5:
            low = rng.randint(0, 400)
            predicates.append(Predicate("price", Operator.GE, low))
            predicates.append(Predicate("price", Operator.LT, low + rng.randint(50, 300)))
        engine.add(
            Subscription(
                event_type="ticker.quote",
                predicates=tuple(predicates),
                subscriber=f"trader{index % 100}",
            )
        )
    events = [
        Event(
            event_type="ticker.quote",
            attributes={
                "topic": rng.choice(topics),
                "priority": rng.randint(0, 9),
                "price": round(rng.random() * 700, 3),
            },
        )
        for _ in range(4096)
    ]
    cursor = itertools.count()

    matched = benchmark(lambda: engine.match(events[next(cursor) % len(events)]))
    assert isinstance(matched, list)
    assert sum(len(engine.match(event)) for event in events[:64]) > 64
    assert all(sub.matches(events[0]) for sub in engine.match(events[0]))


def test_hp_analyzer_cached_reanalysis(benchmark):
    """Re-analyzing a working set of already-seen texts (crawler re-visits).

    The memoized analyzer answers repeats from its LRU cache instead of
    re-running tokenize + stopword filtering + stemming.
    """
    analyzer = TextAnalyzer()
    texts = [doc.text for doc in _synthetic_documents(300, seed=29)]
    for text in texts:  # warm the cache (first visit pays full analysis)
        analyzer.analyze(text)

    def run():
        total = 0
        for text in texts:
            total += analyzer.analyze(text).length
        return total

    total = benchmark(run)
    assert total > 0


def _cluster_publish_workload(
    num_subscriptions=10_000, num_events=2_000, seed=23, num_topics=50
):
    """The §5.3 mixed equality/range workload at 10k subscriptions."""
    rng = SeededRNG(seed)
    topics = [f"topic{i:03d}" for i in range(num_topics)]
    subscriptions = [
        make_subscription(rng, topics, subscriber=f"user{index % 200}")
        for index in range(num_subscriptions)
    ]
    events = [make_event(rng, topics, timestamp=float(i)) for i in range(num_events)]
    return subscriptions, events


def test_hp_sequential_publish_single(benchmark):
    """Baseline: 2k events published one by one through a single engine."""
    subscriptions, events = _cluster_publish_workload()
    engine = MatchingEngine()
    for subscription in subscriptions:
        engine.add(subscription)

    def run():
        return sum(len(engine.match(event)) for event in events)

    deliveries = benchmark(run)
    assert deliveries > 0


def test_hp_routed_cluster_publish(benchmark):
    """2k events through a routed 3-broker line cluster (sim-driven).

    Pins the per-event cost of the full message plane: mailbox queueing,
    batched service, content-routed forwarding decisions, and simulated
    link delivery — everything a routed publish adds over bare matching.
    Subscriptions are spread across all three brokers, so a large share of
    deliveries crosses overlay links.
    """
    from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology

    subscriptions, events = _cluster_publish_workload(num_subscriptions=6_000)
    rng = SeededRNG(41)
    cluster = BrokerCluster(
        service_rate=1e9, batch_size=64, link_latency=0.001
    )
    names = build_cluster_topology("line", 3, cluster)
    for subscription in subscriptions:
        cluster.subscribe(names[rng.randint(0, 2)], subscription)
    expected = cluster.metrics.counter("cluster.deliveries")

    def run():
        # The sim clock keeps advancing run over run; each round publishes
        # the same 2k events at the current sim time and drains them.
        start = expected.value
        for index, event in enumerate(events):
            cluster.publish(names[index % 3], event)
        cluster.run()
        return expected.value - start

    deliveries = benchmark(run)
    assert deliveries > 0
    assert cluster.metrics.counter("cluster.events_forwarded").value > 0


def test_hp_mesh_publish_dedup(benchmark):
    """2k events through a 5-broker *mesh* (ring + chords, sim-driven).

    Pins the redundant-routing overhead: on a cyclic overlay every event
    fans out over multiple paths and each broker's TTL-bounded
    ``DedupIndex`` suppresses the re-arrivals.  The delta against
    ``test_hp_routed_cluster_publish`` (acyclic line) is the price of
    redundancy — extra forwards plus per-ingress dedup probes.
    """
    from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology

    subscriptions, events = _cluster_publish_workload(num_subscriptions=6_000)
    rng = SeededRNG(41)
    cluster = BrokerCluster(
        service_rate=1e9, batch_size=64, link_latency=0.001, allow_cycles=True
    )
    names = build_cluster_topology("mesh", 5, cluster)
    for subscription in subscriptions:
        cluster.subscribe(names[rng.randint(0, len(names) - 1)], subscription)
    expected = cluster.metrics.counter("cluster.deliveries")

    def run():
        start = expected.value
        for index, event in enumerate(events):
            cluster.publish(names[index % len(names)], event)
        cluster.run()
        return expected.value - start

    deliveries = benchmark(run)
    assert deliveries > 0
    assert cluster.network.duplicates_suppressed > 0, (
        "a mesh publish run must exercise duplicate suppression"
    )


def test_hp_routed_publish_many(benchmark):
    """10k events through the routed line cluster, batched vs sequential.

    Same cluster shape as ``test_hp_routed_cluster_publish`` (the C1b
    bench line: 3 brokers, 6k spread subscriptions) but over 1000 topics,
    so per-event *routing* cost — mailbox entries, service cycles,
    next-hop decisions, per-link forward messages — dominates delivery
    fan-out, which batching deliberately leaves untouched.  Events enter
    via ``publish_many`` in 512-event batches: one mailbox entry and one
    service cycle per batch, cross-cycle probe/result caching in the
    matching engine, route sets amortized per (node, signature) through
    the versioned route cache, and forwards coalesced into one
    ``event.forward_batch`` message per link per cycle.  The sequential
    baseline publishes the same events at distinct sim times (one service
    cycle and one forward message per event — the real per-event data
    plane, not a same-instant burst the mailbox would already coalesce),
    timed once before the batched rounds.  The PR 8 acceptance bar is a
    >= 3x per-event speedup, enforced here and by
    ``check_scale_budget.py --min-publish-speedup`` in CI.
    """
    import time

    from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology

    subscriptions, events = _cluster_publish_workload(
        num_subscriptions=6_000, num_events=10_000, num_topics=1_000
    )
    rng = SeededRNG(41)
    cluster = BrokerCluster(service_rate=1e9, batch_size=64, link_latency=0.001)
    names = build_cluster_topology("line", 3, cluster)
    for subscription in subscriptions:
        cluster.subscribe(names[rng.randint(0, 2)], subscription)
    delivered = cluster.metrics.counter("cluster.deliveries")

    # Sequential baseline: timed per-event passes (same events, same
    # ingress rotation), drained before the batched rounds start.  Two
    # passes, best-of: a single pass is exposed to cyclic-GC debt left
    # by earlier benchmarks (the 1M-subscription build) landing in the
    # middle of the measurement.
    import gc

    seq_s = float("inf")
    for _ in range(2):
        base = cluster.sim.now
        gc.collect()
        seq_start = time.perf_counter()
        for index, event in enumerate(events):
            cluster.publish_at(base + index * 1e-5, names[index % 3], event)
        cluster.run()
        seq_s = min(seq_s, time.perf_counter() - seq_start)
    seq_deliveries = delivered.value // 2

    def run():
        start = delivered.value
        base = cluster.sim.now
        # Batches streamed at distinct sim times (the steady-state shape
        # documented in PERFORMANCE.md): one mailbox entry, one service
        # cycle and one coalesced forward per link per batch — not one
        # same-instant mega-cycle.
        for index, chunk_start in enumerate(range(0, len(events), 512)):
            cluster.publish_many_at(
                base + index * 1e-3,
                names[index % 3],
                events[chunk_start : chunk_start + 512],
            )
        cluster.run()
        return delivered.value - start

    # The same GC discipline as the sequential passes: collect before
    # each round so cyclic-GC debt from earlier benchmarks is not billed
    # to whichever path happens to trip the threshold.
    deliveries = benchmark.pedantic(
        run, setup=_gc_setup, rounds=5, iterations=1, warmup_rounds=1
    )
    # What is delivered must not depend on how events were enqueued.
    assert deliveries == seq_deliveries
    assert cluster.network.kind_message_count("event.forward_batch") > 0
    # Best round vs best sequential pass: the ratio of means is noisier
    # than either path (GC debt from earlier benchmarks lands in some
    # rounds), min-vs-min is what the hardware actually does.
    batch_s = benchmark.stats.stats.min if benchmark.stats else None
    speedup = round(seq_s / batch_s, 2) if batch_s else None
    benchmark.extra_info.update(
        {
            "events": len(events),
            "sequential_s": round(seq_s, 4),
            "batched_s": round(batch_s, 4) if batch_s else None,
            "sequential_us_per_event": round(seq_s / len(events) * 1e6, 2),
            "batched_us_per_event": (
                round(batch_s / len(events) * 1e6, 2) if batch_s else None
            ),
            "speedup": speedup,
        }
    )
    if speedup is not None:
        assert speedup >= 3.0, f"batched publish speedup {speedup} < 3x"


def test_hp_delivery_fanout(benchmark):
    """High fan-out delivery through the routed serve loop, vectorized.

    The inverse workload of ``test_hp_routed_publish_many``: 5 topics
    instead of 1000, so every event matches ~1/5 of 6k subscriptions and
    per-*delivery* work (hop/e2e histogram observations, subscriber
    callbacks) dwarfs per-event routing.  PR 9 vectorizes that loop:
    metric handles are hoisted, each event's fan-out lands as one
    ``Histogram.observe_many`` instead of per-subscriber ``observe``
    pairs, and consumers register ``on_delivery_batch`` (one call per
    event with the full match row) rather than a per-(event, subscription)
    callback.  Reported as µs per delivery; the batch-callback totals are
    asserted identical to the per-delivery counter, so vectorization
    cannot change what is delivered.
    """
    import gc

    from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology

    subscriptions, events = _cluster_publish_workload(
        num_subscriptions=6_000, num_events=1_000, num_topics=5
    )
    rng = SeededRNG(43)
    cluster = BrokerCluster(service_rate=1e9, batch_size=64, link_latency=0.001)
    names = build_cluster_topology("line", 3, cluster)
    for subscription in subscriptions:
        cluster.subscribe(names[rng.randint(0, 2)], subscription)
    delivered = cluster.metrics.counter("cluster.deliveries")
    seen_by_batch_callback = [0]
    cluster.on_delivery_batch(
        lambda _broker, _event, row: seen_by_batch_callback.__setitem__(
            0, seen_by_batch_callback[0] + len(row)
        )
    )

    def run():
        start = delivered.value
        base = cluster.sim.now
        for index, chunk_start in enumerate(range(0, len(events), 256)):
            cluster.publish_many_at(
                base + index * 1e-3,
                names[index % 3],
                events[chunk_start : chunk_start + 256],
            )
        cluster.run()
        return delivered.value - start

    deliveries = benchmark.pedantic(
        run, setup=_gc_setup, rounds=5, iterations=1, warmup_rounds=1
    )
    assert deliveries > 100_000  # genuinely fan-out heavy
    # The vectorized batch callback saw exactly what the counter counted.
    assert seen_by_batch_callback[0] == delivered.value
    per_delivery_us = (
        benchmark.stats.stats.min / deliveries * 1e6 if benchmark.stats else None
    )
    benchmark.extra_info.update(
        {
            "events": len(events),
            "deliveries_per_round": int(deliveries),
            "fanout_per_event": round(deliveries / len(events), 1),
            "us_per_delivery": (
                round(per_delivery_us, 3) if per_delivery_us is not None else None
            ),
        }
    )


def test_hp_cluster_churn_recovery(benchmark):
    """One link failover + failback cycle on a loaded 4-broker line.

    Pins the wall-clock cost of the route-repair machinery itself (what
    a failure detector triggers once suspicion fires): covering-aware
    re-routing of both split components on teardown, then the
    canonicalizing re-advertisement on failback — with 4k subscriptions
    of routing state to rebuild.  The cluster is built once; each round
    tears the middle link down and restores it, returning to the
    identical converged state.
    """
    from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
    from repro.cluster.recovery import routing_converged

    subscriptions, _events = _cluster_publish_workload(
        num_subscriptions=4_000, num_events=1
    )
    rng = SeededRNG(47)
    cluster = BrokerCluster(service_rate=1e9, link_latency=0.001)
    names = build_cluster_topology("line", 4, cluster)
    for subscription in subscriptions:
        cluster.subscribe(names[rng.randint(0, 3)], subscription)

    def run():
        cluster.fail_link("b1", "b2")
        cluster.restore_link("b1", "b2")
        return cluster.total_routing_state()

    state = benchmark(run)
    assert state > 0
    assert routing_converged(cluster.fabric)


def test_hp_unsubscribe_churn(benchmark):
    """Unsubscribe/resubscribe churn against 50k routed subscriptions.

    Pins the control-plane retraction hot path: each round retracts 500
    subscriptions spread across a 4-broker line (with covering repair for
    the routes they pruned) and re-issues them.  The reverse route index
    and the pruned-by graph bound every retraction to the routes the
    subscription actually holds — the pre-PR 5 path swept every node ×
    neighbour table and ran a ``covers()`` scan over *all* live
    subscriptions per unsubscribe, which at this scale is seconds per
    round.  ``REPRO_BENCH_SCALE`` shrinks the population for CI smoke.
    """
    from conftest import bench_scale
    from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
    from repro.cluster.recovery import routing_converged

    num_subscriptions = max(2_000, int(50_000 * bench_scale(default=1.0)))
    subscriptions, _events = _cluster_publish_workload(
        num_subscriptions=num_subscriptions, num_events=1
    )
    rng = SeededRNG(53)
    cluster = BrokerCluster(service_rate=1e9, link_latency=0.001)
    names = build_cluster_topology("line", 4, cluster)
    home_of = {}
    for subscription in subscriptions:
        home = names[rng.randint(0, 3)]
        home_of[subscription.subscription_id] = home
        cluster.subscribe(home, subscription)
    churn = subscriptions[:: max(1, num_subscriptions // 500)]

    def run():
        for subscription in churn:
            assert cluster.unsubscribe(
                home_of[subscription.subscription_id], subscription.subscription_id
            )
        for subscription in churn:
            cluster.subscribe(home_of[subscription.subscription_id], subscription)
        return cluster.total_routing_state()

    state = benchmark(run)
    assert state > 0
    assert routing_converged(cluster.fabric)


def test_hp_scale_million_subscriptions(benchmark):
    """A million §5.3-shaped subscriptions resident in one engine (PR 6).

    Pins the interned-pool + columnar-storage scale target: the full
    population is built through ``add_many``, the resident set's RSS and
    the engine's columnar/pool footprint are recorded in ``extra_info``
    alongside subscribe/unsubscribe latency at full population, and the
    benchmark clock times single-event matching against the million
    resident subscriptions.  ``REPRO_BENCH_SCALE`` shrinks the population
    for CI smoke (the 100k budget job).
    """
    import resource
    import time

    from conftest import bench_scale
    from repro.pubsub.subscriptions import predicate_pool

    target = max(20_000, int(1_000_000 * bench_scale(default=1.0)))
    topics = [f"topic{i:02d}" for i in range(50)]
    rng = SeededRNG(71)
    subscriptions = [
        make_subscription(rng, topics, f"user{i % 200:03d}") for i in range(target)
    ]
    engine = MatchingEngine()
    build_start = time.perf_counter()
    engine.add_many(subscriptions)
    build_s = time.perf_counter() - build_start
    assert len(engine) == target
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Subscribe/unsubscribe latency at full population: churn a fresh
    # slice in and out while the million stay resident.
    churn = [
        make_subscription(rng, topics, f"churn{i % 50:02d}") for i in range(2_000)
    ]
    churn_start = time.perf_counter()
    for subscription in churn:
        engine.add(subscription)
    subscribe_us = (time.perf_counter() - churn_start) / len(churn) * 1e6
    churn_start = time.perf_counter()
    for subscription in churn:
        assert engine.remove(subscription.subscription_id)
    unsubscribe_us = (time.perf_counter() - churn_start) / len(churn) * 1e6

    stats = engine.column_stats()
    pool = predicate_pool().stats()
    benchmark.extra_info.update(
        {
            "subscriptions": target,
            "build_s": round(build_s, 3),
            "rss_mb": round(rss_mb, 1),
            "subscribe_us": round(subscribe_us, 3),
            "unsubscribe_us": round(unsubscribe_us, 3),
            "column_bytes": stats["needs_bytes"]
            + stats["counts_bytes"]
            + stats["subscriber_id_bytes"],
            "distinct_shapes": stats["distinct_shapes"],
            "pool_predicates": pool["predicates"],
            "pool_signatures": pool["signatures"],
        }
    )

    event = Event(
        event_type="news.story", attributes={"topic": topics[7], "priority": 3}
    )
    matched = benchmark(lambda: engine.match(event))
    assert len(matched) > 0


def test_hp_batch_subscribe_vs_loop(benchmark):
    """100k-subscription batch placement versus a subscribe loop (PR 6).

    Pins the advertisement-batching win: ``subscribe_many_at`` runs one
    BFS over a 48-broker line for the whole batch and lets batch members
    covered by an earlier member copy that member's per-edge fate (with
    the per-edge prune records flushed in bulk), where the loop re-walks
    the overlay and probes every edge table per subscription.  The line
    topology makes the per-edge control-plane cost dominate — the regime
    batching exists for; the amortization grows with path length (about
    0.4s/edge looped vs 0.05s/edge batched at 100k).  Subscribers are
    distinct (one subscription each) so ingress merging fires in neither
    path and the measured gap is the batching itself; the loop time and
    speedup ratio land in ``extra_info``.
    """
    import time

    from conftest import bench_scale
    from repro.cluster.routing import RoutingFabric
    from repro.pubsub.broker import Broker

    target = max(5_000, int(100_000 * bench_scale(default=1.0)))
    topics = [f"topic{i:02d}" for i in range(50)]
    rng = SeededRNG(37)
    subscriptions = [
        make_subscription(rng, topics, f"solo{i:06d}") for i in range(target)
    ]

    def build_fabric():
        fabric = RoutingFabric()
        for index in range(48):
            fabric.add_node(f"b{index}", Broker(f"b{index}"))
        for index in range(47):
            fabric.connect(f"b{index}", f"b{index + 1}")
        return fabric

    # The loop fabric's routing state is millions of container objects;
    # compare sizes and release it before the timed batch rounds so
    # cyclic-GC passes over it are not billed to the batch.
    import gc

    loop_fabric = build_fabric()
    loop_start = time.perf_counter()
    for subscription in subscriptions:
        loop_fabric.subscribe_at("b0", subscription)
    loop_s = time.perf_counter() - loop_start
    loop_state = loop_fabric.total_routing_state()
    del loop_fabric
    gc.collect()

    def run():
        fabric = build_fabric()
        fabric.subscribe_many_at("b0", subscriptions)
        return fabric.total_routing_state()

    state = benchmark.pedantic(run, setup=_gc_setup, rounds=3, iterations=1)
    assert state == loop_state
    # benchmark.stats is None under --benchmark-disable (CI smoke).
    batch_s = benchmark.stats.stats.mean if benchmark.stats else None
    benchmark.extra_info.update(
        {
            "subscriptions": target,
            "loop_s": round(loop_s, 4),
            "batch_s": round(batch_s, 4) if batch_s else None,
            "speedup": round(loop_s / batch_s, 2) if batch_s else None,
        }
    )


def _wire_bench_events(count=32):
    """The events of one ``publish_many`` batch on the wire benches."""
    return [
        Event(
            "bench.event",
            {"topic": f"topic-{index:05d}", "source": f"src-{index % 16:02d}"},
            event_id=f"e-{index:07d}",
        )
        for index in range(count)
    ]


def test_hp_wire_hop_codec(benchmark):
    """The codec work of one transit hop, no sockets (PR 15).

    One received 32-member ``forward_batch`` payload is decoded,
    ``decode_event`` validates each member, and the hop builds what it
    would send on: the onward ``forward_batch`` frame and 32 ``event``
    frames.  The inbound frame is built from decoded events, as a real
    upstream broker would build it.
    """
    from repro.net import wire

    events = _wire_bench_events()
    subscription_ids = ["s-0000001", "s-0000002"]
    (payload,) = wire.FrameDecoder().feed(
        wire.forward_batch_frame([(event, 1, 1234.5678) for event in events])
    )

    def hop():
        members = [
            (wire.decode_event(item[0]), item[1] + 1, item[2])
            for item in wire.decode_payload(payload).body["members"]
        ]
        frames = [wire.forward_batch_frame(members)]
        for event, hops, origin_ts in members:
            frames.append(wire.event_frame(event, subscription_ids, origin_ts, hops))
        return frames

    frames = benchmark(hop)
    assert len(frames) == 33
    assert frames[0] == wire.forward_batch_frame(
        [(event, 2, 1234.5678) for event in events]
    )
    assert frames[1] == wire.event_frame(events[0], subscription_ids, 1234.5678, 2)
    benchmark.extra_info.update({"members": 32, "frames_out": len(frames)})


def test_hp_wire_egress_batch(benchmark):
    """The codec work of the egress hop and its subscriber, no sockets
    (PR 19).

    One received 32-member ``forward_batch`` payload is decoded and
    validated, the egress broker builds the session's push — one
    ``event_batch`` frame — and the client side turns it into 32
    deliveries.  The per-event equivalent (32 ``event`` frames, each
    decoded on its own) is timed into ``extra_info``.
    """
    import time

    from repro.net import wire
    from repro.net.client import BrokerClient

    events = _wire_bench_events()
    subscription_ids = ["s-0000001", "s-0000002", "s-0000003", "s-0000004"]
    (payload,) = wire.FrameDecoder().feed(
        wire.forward_batch_frame([(event, 2, 1234.5678) for event in events])
    )
    client = BrokerClient("127.0.0.1", 0)
    queue = client._events

    def arrive():
        return [
            (wire.decode_event(item[0]), subscription_ids, item[2], item[1])
            for item in wire.decode_payload(payload).body["members"]
        ]

    def receive(frames):
        decoder = wire.FrameDecoder()
        for frame in frames:
            for pushed in decoder.feed(frame):
                client._handle_payload(pushed)
        return [queue.get_nowait() for _ in range(queue.qsize())]

    def batched():
        return receive(wire.event_push_frames(arrive()))

    def per_event():
        return receive([wire.event_frame(*member) for member in arrive()])

    def stripped(deliveries):
        return [(d.event, d.subscription_ids, d.origin_ts, d.hops) for d in deliveries]

    rounds = 50
    started = time.perf_counter()
    for _ in range(rounds):
        singles = per_event()
    per_event_s = (time.perf_counter() - started) / rounds

    deliveries = benchmark(batched)
    assert len(deliveries) == 32
    assert stripped(deliveries) == stripped(singles)
    assert stripped(deliveries)[0] == (events[0], tuple(subscription_ids), 1234.5678, 2)
    batch_s = benchmark.stats.stats.mean if benchmark.stats else None
    benchmark.extra_info.update(
        {
            "members": 32,
            "frames_out": len(wire.event_push_frames(arrive())),
            "per_event_frames_us": round(per_event_s * 1e6, 1),
            "batch_us": round(batch_s * 1e6, 1) if batch_s else None,
        }
    )


def test_hp_covering_range_bucket(benchmark):
    """One ``EQ``-free covering bucket of 10 000 price ranges (PR 16).

    1 000 disjoint families of 10 nested ranges, no ``topic ==``: every
    entry shares the ``("price",)`` / ``("*",)`` bucket, which the index
    scans linearly — the bounds filter rejects a candidate on two
    compares and ``covers()`` runs on survivors only.  The timed call
    makes a ``first_cover`` hit, a ``first_cover`` miss (the whole bucket
    is scanned) and a ``covered_by``; each is also timed on its own into
    ``extra_info``.  No registered e2e workload has a bucket past 10
    entries; this records what the linear scan costs where one does.
    """
    import time

    from repro.pubsub.subscriptions import CoveringIndex

    def price_range(subscription_id: str, lo: float, hi: float) -> Subscription:
        return Subscription(
            event_type="bench.tick",
            predicates=(
                Predicate("price", Operator.GE, lo),
                Predicate("price", Operator.LE, hi),
            ),
            subscriber="u",
            subscription_id=subscription_id,
        )

    families, levels, spacing = 1_000, 10, 100.0
    index = CoveringIndex()
    for family in range(families):
        centre = family * spacing
        for level in range(levels):
            index.add(
                price_range(f"r{family:04d}-{level}", centre - level - 1, centre + level + 1),
                priority=family * levels + level,
            )
    centre = (families // 2) * spacing
    inside = price_range("hit", centre - 0.5, centre + 0.5)
    straddling = price_range("miss", centre - 1.0, centre + spacing + 1.0)
    around = price_range("around", centre - levels - 1.0, centre + levels + 1.0)

    def hit():
        return index.first_cover(inside)

    def miss():
        return index.first_cover(straddling)

    def covered():
        return index.covered_by(around)

    def run():
        return hit(), miss(), covered()

    found, missed, covered_entries = benchmark(run)
    assert found is not None and found.covers(inside)
    assert missed is None
    assert len(covered_entries) == levels

    def median_us(call) -> float:
        samples = []
        for _ in range(7):
            started = time.perf_counter()
            call()
            samples.append(time.perf_counter() - started)
        return round(sorted(samples)[len(samples) // 2] * 1e6, 1)

    benchmark.extra_info.update(
        {
            "entries": len(index),
            "first_cover_hit_us": median_us(hit),
            "first_cover_miss_us": median_us(miss),
            "covered_by_us": median_us(covered),
        }
    )
