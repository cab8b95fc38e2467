"""Measurement loop: cold set-ups, warm-up, sentinel-bracketed rounds.

A run is count-based, never time-based:

1. :data:`SETUPS` cold set-ups (median -> ``setup_s``); each earlier
   system is torn down and collected before the next, the last is kept;
2. ``gc.collect()`` once, GC left on;
3. :data:`WARMUP_ROUNDS` discarded rounds, then ``rounds`` measured rounds
   of a fixed event count.  The frozen sentinel kernel is timed on the
   same thread right before and right after every round and set-up; a
   round's speed factor ``f = mean(before, after) / SENTINEL_REF``
   divides rates and multiplies durations *per round*, and each reported
   value is the median over rounds;
4. ``ru_maxrss`` is read after the last measured round;
5. one extra untimed round compares full ``(event, subscription)`` sets.

Every round, measured or not, is checked against the oracle's per-event
pair counts; any mismatch lands in ``failed``.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import sentinel
from oracle import Oracle, compare_counts, compare_pairs
from systems import ChurnSystem, FanoutSystem, RoundOutcome, RoundPlan, WireSystem
from workloads import ChurnWorkload, FanoutWorkload, WireWorkload

SETUPS = 4
WARMUP_ROUNDS = 2
MIN_ROUNDS = 15
#: Nominal length of one measured round; ``--seconds`` buys
#: ``seconds / ROUND_NOMINAL_S`` rounds (never fewer than MIN_ROUNDS).
ROUND_NOMINAL_S = 1.0

#: Final sizes, chosen so one round takes ~0.8 s at reference machine
#: speed (see README.md, "Workloads").
WORKLOADS: Dict[str, Callable[[int], object]] = {
    "wire_pipelined": lambda seed: WireWorkload(
        "wire_pipelined", seed, events_per_round=7_680, batch=32, window=256
    ),
    "wire_ackpaced": lambda seed: WireWorkload(
        "wire_ackpaced", seed, events_per_round=2_640, batch=1, window=1
    ),
    "sim_fanout": lambda seed: FanoutWorkload(seed, events_per_round=384, batch=64),
    "sim_churn": lambda seed: ChurnWorkload(seed, steps_per_round=7),
}

_SYSTEMS = {
    WireWorkload: WireSystem,
    FanoutWorkload: FanoutSystem,
    ChurnWorkload: ChurnSystem,
}


def rounds_for(seconds: float) -> int:
    return max(MIN_ROUNDS, int(round(seconds / ROUND_NOMINAL_S)))


@dataclass
class Timed:
    """One sentinel-bracketed measurement."""

    wall_s: float
    cpu_s: float
    #: Sentinel readings ``(wall_mops, cpu_mops)`` right before and after.
    before: Tuple[float, float]
    after: Tuple[float, float]

    # Machine speed relative to the sentinel reference, per clock: the mean
    # of the bracket's own two readings.  (A median over neighbouring
    # brackets was tried and dropped: this box flips between two speed
    # states every few seconds, and a round inside one state surrounded by
    # rounds in the other then got the wrong factor.)

    @property
    def f_wall(self) -> float:
        return (self.before[0] + self.after[0]) / 2 / sentinel.SENTINEL_REF_MOPS

    @property
    def f_cpu(self) -> float:
        return (self.before[1] + self.after[1]) / 2 / sentinel.SENTINEL_REF_CPU_MOPS

    @property
    def sentinel_mops(self) -> float:
        return self.f_wall * sentinel.SENTINEL_REF_MOPS


@dataclass
class RoundSample:
    timed: Timed
    events: int
    pairs: int
    #: Raw latency percentiles of the round, milliseconds.
    p50_ms: float
    p90_ms: float
    p99_ms: float
    subscribed: int = 0
    unsubscribed: int = 0
    #: Traced rounds only: layer span name -> self seconds / span count,
    #: and the counts taken by the trace wrappers during the round.
    self_seconds: Dict[str, float] = field(default_factory=dict)
    span_counts: Dict[str, int] = field(default_factory=dict)
    frames: int = 0
    frame_bytes: int = 0
    cache_resets: int = 0

    @property
    def raw_rate(self) -> float:
        return self.events / self.timed.wall_s

    @property
    def rate(self) -> float:
        return self.raw_rate / self.timed.f_wall

    @property
    def cpu_us_per_event(self) -> float:
        return self.timed.cpu_s * self.timed.f_cpu * 1e6 / self.events


class RunAborted(Exception):
    """A round timed out or lost its connection; the run cannot go on."""


@dataclass
class Tally:
    """Operations attempted / failed: expected pairs, publishes, control calls."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note and len(self.notes) < 10:
            self.notes.append(note)


def _cpu_now() -> float:
    """Process plus reaped-children CPU seconds (user + system).  The
    process's own time comes from the nanosecond clock; ``os.times`` ticks
    at 10 ms and is only good enough for children (none in-loop)."""
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


async def timed(call: Callable) -> Tuple[Timed, object]:
    """Await ``call()`` between two sentinel measurements."""
    before = sentinel.measure()
    cpu_start = _cpu_now()
    wall_start = time.perf_counter()
    result = await call()
    wall = time.perf_counter() - wall_start
    cpu = _cpu_now() - cpu_start
    return Timed(wall_s=wall, cpu_s=cpu, before=before, after=sentinel.measure()), result


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def iqr_share(values: List[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 4 values)."""
    if len(values) < 4:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


class Run:
    """One workload, one seed, one process."""

    def __init__(self, workload_name: str, seed: int) -> None:
        self.workload = WORKLOADS[workload_name](seed)
        self.sub_specs = self.workload.subscriptions()
        self.oracle = Oracle(self.sub_specs)
        self.tally = Tally()
        self.setups: List[Timed] = []
        self.system = None

    def _new_system(self):
        return _SYSTEMS[type(self.workload)](self.workload, self.sub_specs, self.oracle)

    async def cold_setups(self, count: int = SETUPS) -> None:
        """``count`` cold starts; the last system stays up."""
        for index in range(count):
            system = self._new_system()
            sample, _ = await timed(system.setup)
            self.setups.append(sample)
            if index < count - 1:
                await system.teardown()
                del system
                gc.collect()
            else:
                self.system = system
        gc.collect()

    async def round(self, measured: bool = True) -> Optional[RoundSample]:
        """Plan, run (timed) and check one round (``None`` for warm-ups)."""
        system = self.system
        plan = system.plan_round()
        try:
            sample, outcome = await timed(lambda: system.run_round(plan))
        except (asyncio.TimeoutError, ConnectionError, OSError) as error:
            expected = sum(plan.expected.values()) + plan.publishes + plan.control_calls
            self.tally.add(expected, expected, "round aborted: %r" % (error,))
            raise RunAborted() from error
        self._check(plan, outcome)
        if not measured:
            return None
        ordered = sorted(outcome.latencies)
        return RoundSample(
            timed=sample,
            events=len(plan.specs),
            pairs=sum(outcome.delivered.values()),
            p50_ms=percentile(ordered, 0.50) * 1e3,
            p90_ms=percentile(ordered, 0.90) * 1e3,
            p99_ms=percentile(ordered, 0.99) * 1e3,
            subscribed=plan.subscribed,
            unsubscribed=plan.unsubscribed,
        )

    def _check(self, plan: RoundPlan, outcome: RoundOutcome) -> None:
        attempted, failed, offenders = compare_counts(plan.expected, outcome.delivered)
        self.tally.add(attempted, failed, "pair-count mismatch at %s" % offenders)
        self.tally.add(plan.publishes, outcome.publish_failures, "publish failed")
        self.tally.add(plan.control_calls, outcome.control_failures, "control call failed")

    async def verify(self) -> None:
        """The untimed full-set round: every (event, subscription) pair."""
        system = self.system
        plan = system.plan_round(full=True)
        try:
            outcome = await system.run_round(plan, collect_pairs=True)
        except (asyncio.TimeoutError, ConnectionError, OSError) as error:
            expected = sum(plan.expected.values())
            self.tally.add(expected, expected, "verification aborted: %r" % (error,))
            raise RunAborted() from error
        attempted, failed, sample = compare_pairs(plan.expected_pairs, outcome.pairs)
        self.tally.add(attempted, failed, "pair-set mismatch, e.g. %s" % sample)
        self.tally.add(plan.publishes, outcome.publish_failures, "publish failed")
        self.tally.add(plan.control_calls, outcome.control_failures, "control call failed")
        faults = system.fault_count()
        self.tally.add(0, faults, "program counted %d lost/refused messages" % faults)

    async def teardown(self) -> None:
        if self.system is not None:
            await self.system.teardown()
            self.system = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setups: List[Timed], samples: List[RoundSample], rss_mb: float) -> Dict[str, float]:
    """The four gated metrics (corrected), by name."""
    return {
        "setup_s": statistics.median(s.wall_s * s.f_wall for s in setups),
        "events_per_s": statistics.median(s.rate for s in samples),
        "latency_p50_ms": statistics.median(s.p50_ms * s.timed.f_wall for s in samples),
        "peak_rss_mb": rss_mb,
    }


async def measure_end_to_end(workload_name: str, seed: int, rounds: int):
    """The untraced run behind ``--trace 0``: ``(metrics, tally)``."""
    run = Run(workload_name, seed)
    try:
        await run.cold_setups()
        for _ in range(WARMUP_ROUNDS):
            await run.round(measured=False)
        samples = [await run.round() for _ in range(rounds)]
        rss_mb = peak_rss_mb()
        await run.verify()
    except RunAborted:
        return {}, run.tally
    finally:
        await run.teardown()
    return end_to_end(run.setups, samples, rss_mb), run.tally


# -- the traced run behind ``--trace 1`` --------------------------------------

TRACE_WARMUP_ROUNDS = 2
#: Measured rounds of a ``--trace`` run come in (untraced, traced) pairs on
#: the same system; this share of the requested rounds is the pair count.
PAIR_SHARE = 0.45
MIN_PAIRS = 3


def _median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


async def measure_per_layer(workload_name: str, seed: int, rounds: int, out_dir: str):
    """The per-layer run.  One traced cold set-up (its spans give the
    per-subscription costs of workloads whose rounds make no control
    calls), then one untraced set-up whose system is kept; after warm-up,
    rounds alternate untraced / traced **on that same system** — the
    wrappers are taken off the program and put back between rounds — so
    the two kinds see the same caches, memory and machine phase, and
    their difference is the tracing overhead.  Untraced rounds give the
    ledger's CPU per event; traced rounds give the layers' shares of it.
    Returns ``(metrics, tally, problems)``."""
    import metrics as catalogue
    import trace as tracing

    pairs = max(MIN_PAIRS, int(round(rounds * PAIR_SHARE)))
    installed = tracing.install()
    recorder = installed.recorder
    run = Run(workload_name, seed)
    base: List[RoundSample] = []
    traced: List[RoundSample] = []
    last_spans: List = []
    try:
        await run.cold_setups(1)
        traced_setup = run.setups[0]
        setup_self, _counts, _spans = recorder.drain()
        await run.teardown()
        gc.collect()
        installed.pause()

        await run.cold_setups(1)
        plain_setup = run.setups[1]
        for _ in range(TRACE_WARMUP_ROUNDS):
            await run.round(measured=False)
        before = run.system.counters()
        for _ in range(pairs):
            base.append(await run.round())
            installed.resume()
            frames, frame_bytes, resets = (
                installed.frames, installed.frame_bytes, installed.cache_resets
            )
            sample = await run.round()
            installed.pause()
            sample.self_seconds, sample.span_counts, last_spans = recorder.drain()
            sample.frames = installed.frames - frames
            sample.frame_bytes = installed.frame_bytes - frame_bytes
            sample.cache_resets = installed.cache_resets - resets
            traced.append(sample)
        after = run.system.counters()
        gauges = run.system.gauges()
        await run.verify()
    except RunAborted:
        return {}, run.tally, []
    finally:
        installed.pause()
        await run.teardown()
    counts = {name: value - before.get(name, 0.0) for name, value in after.items()}
    tally = run.tally
    subscriptions = len(run.sub_specs)

    os.makedirs(out_dir, exist_ok=True)
    tracing.write_spans(
        os.path.join(out_dir, workload_name + ".spans.json"),
        recorder.names,
        last_spans,
        {
            "workload": workload_name,
            "seed": seed,
            "scope": "last traced round",
            "clock": "time.perf_counter seconds",
            "wrapper_cost_inside_s": recorder.cost_inside,
            "wrapper_cost_outside_s": recorder.cost_outside,
        },
    )

    events = sum(s.events for s in base + traced)
    cpu_us = _median_of(s.cpu_us_per_event for s in base)
    wrapper_cost = recorder.cost_inside + recorder.cost_outside

    def layer_us(span_name: str, per: str = "events") -> float:
        """A layer's self time per event (or per subscription placed /
        retracted): its *share* of the traced round's wall time net of the
        calibrated wrapper cost — spans are cut on the wall clock, so the
        shares of one round cannot sum past 1, and machine speed cancels
        inside the round — scaled by the untraced CPU per event.  Median
        over traced rounds."""
        values = []
        for sample in traced:
            denominator = getattr(sample, per)
            if denominator:
                net_wall = sample.timed.wall_s - wrapper_cost * sum(sample.span_counts.values())
                share = sample.self_seconds.get(span_name, 0.0) / net_wall
                values.append(share * cpu_us * sample.events / denominator)
        return _median_of(values)

    per_event = {name: layer_us(name) for name in catalogue.SPAN_METRIC}
    traced_sum = sum(per_event.values())
    residual = cpu_us - traced_sum
    is_wire = workload_name.startswith("wire_")

    out = {metric: per_event[span] for span, metric in catalogue.SPAN_METRIC.items()}
    for span in catalogue.PER_SUBSCRIBE:
        # Workloads without control calls in their rounds report the
        # traced set-up instead.
        out[catalogue.SPAN_METRIC[span]] = layer_us(span, "subscribed") or (
            setup_self.get(span, 0.0) * traced_setup.f_wall * 1e6 / subscriptions
        )
    for span in catalogue.PER_UNSUBSCRIBE:
        out[catalogue.SPAN_METRIC[span]] = layer_us(span, "unsubscribed")
    traced_events = sum(s.events for s in traced)
    pruned = counts.get("overlay.subscription_pruned", 0.0)
    out.update({
        "net.client.latency_p90_ms": _median_of(s.p90_ms * s.timed.f_wall for s in base) if is_wire else 0.0,
        "net.client.latency_p99_ms": _median_of(s.p99_ms * s.timed.f_wall for s in base) if is_wire else 0.0,
        "net.wire.frames_per_event": sum(s.frames for s in traced) / traced_events,
        "net.wire.bytes_per_event": sum(s.frame_bytes for s in traced) / traced_events,
        "net.server.residual_us": residual if is_wire else 0.0,
        "net.server.forwards_per_event": counts.get("net.events_forwarded", 0.0) / events,
        "net.server.setup_us_per_sub": (
            plain_setup.wall_s * plain_setup.f_wall * 1e6 / subscriptions if is_wire else 0.0
        ),
        "pubsub.matching.pairs_per_event": sum(s.pairs for s in base + traced) / events,
        "pubsub.matching.cache_resets": sum(s.cache_resets for s in traced) / len(traced),
        "cluster.routing.state_entries": gauges["routing_state"],
        "cluster.routing.pruned_ratio": _ratio(
            pruned, pruned + counts.get("overlay.subscription_hops", 0.0)
        ),
        "cluster.routing.readmitted_per_unsub": _ratio(
            counts.get("overlay.routes_readmitted", 0.0),
            counts.get("overlay.unsubscriptions", 0.0),
        ),
        "cluster.broker_cluster.forwards_per_event": counts.get("cluster.events_forwarded", 0.0) / events,
        "cluster.broker_cluster.duplicates_per_event": counts.get("network.duplicates_suppressed", 0.0) / events,
        "sim.metrics.histogram_samples": gauges["histogram_samples"],
        "ledger.cpu_us_per_event": cpu_us,
        "ledger.traced_share": traced_sum / cpu_us,
        # Paired on adjacent rounds and corrected per round like every
        # other duration, so the machine's phase cancels.
        "ledger.trace_overhead_pct": 100.0 * _median_of(
            with_spans.cpu_us_per_event / without.cpu_us_per_event - 1.0
            for without, with_spans in zip(base, traced)
        ),
        "machine.sentinel_mops": _median_of(s.timed.sentinel_mops for s in base),
        "machine.round_iqr_pct": 100.0 * iqr_share([s.rate for s in base]),
        "raw.events_per_s": _median_of(s.raw_rate for s in base),
        "raw.latency_p50_ms": _median_of(s.p50_ms for s in base),
        "raw.setup_s": plain_setup.wall_s,
    })
    problems = ledger_problems(workload_name, per_event, residual, cpu_us, out)
    return out, tally, problems


def ledger_problems(
    workload_name: str,
    per_event: Dict[str, float],
    residual: float,
    cpu_us: float,
    out: Dict[str, float],
) -> List[str]:
    """The traced run's own assertions: the layers do not claim more than
    the end-to-end CPU figure, the wrappers stayed cheap, and the workload
    is still dominated by the layers it was built to stress.

    ``residual`` is CPU per event minus the layers' sum, so the ledger
    adds up by construction; what can go wrong is the layers summing to
    *more* than the CPU spent (double-counted spans, a wrong wrapper-cost
    calibration).  Sim workloads are traced almost completely, so their
    residual may sit a rounding error below zero; a wire workload's
    residual is a reported metric and must not be negative."""
    import metrics as catalogue

    problems: List[str] = []
    slack = 0.0 if workload_name.startswith("wire_") else catalogue.LEDGER_TOLERANCE
    if residual < -slack * cpu_us:
        problems.append(
            "ledger: layers sum to %.2f us/event, more than the CPU spent, %.2f us/event"
            % (cpu_us - residual, cpu_us)
        )
    overhead = out["ledger.trace_overhead_pct"]
    if overhead > catalogue.MAX_TRACE_OVERHEAD_PCT:
        problems.append("trace overhead %.1f %% > %.0f %%"
                        % (overhead, catalogue.MAX_TRACE_OVERHEAD_PCT))
    shares = dict(per_event, RESIDUAL=residual)
    for spans, relation, share in catalogue.DOMINANCE.get(workload_name, ()):
        got = sum(shares[span] for span in spans) / cpu_us
        if (relation == ">=" and got < share) or (relation == "<=" and got > share):
            problems.append(
                "dominance: %s = %.0f %% of CPU per event, want %s %.0f %%"
                % (" + ".join(spans), 100 * got, relation, 100 * share)
            )
    return problems
