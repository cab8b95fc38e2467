"""Self-checks of the benchmark's own machinery (no timing, < 15 s).

Run with ``pytest benchmarks/e2e -q``.  They pin what the benchmark
promises about itself: deterministic inputs, span arithmetic, a sentinel
the program cannot move, and metric names that agree everywhere.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import metrics as catalogue  # noqa: E402
import oracle  # noqa: E402
import trace as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _stream(name: str, seed: int, rounds: int = 2):
    """Subscription specs plus ``rounds`` rounds of event specs."""
    workload = harness.WORKLOADS[name](seed)
    subscriptions = workload.subscriptions()
    events = []
    for _ in range(rounds):
        if hasattr(workload, "round_steps"):
            for step in workload.round_steps():
                events.extend(step.subscribe)
                events.extend(step.events)
        else:
            events.extend(workload.round_events())
    return subscriptions, events


# -- generator determinism ------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in harness.WORKLOADS:
        first = [workloads.digest(part) for part in _stream(name, 7)]
        again = [workloads.digest(part) for part in _stream(name, 7)]
        other = [workloads.digest(part) for part in _stream(name, 8)]
        assert first == again, name
        assert first[0] != other[0] and first[1] != other[1], name


def test_no_event_or_subscription_id_repeats_within_a_run():
    for name in harness.WORKLOADS:
        subscriptions, stream = _stream(name, 3, rounds=3)
        event_ids = [item.event_id for item in stream if isinstance(item, workloads.EventSpec)]
        sub_ids = [item.sub_id for item in subscriptions] + [
            item.sub_id for item in stream if isinstance(item, workloads.SubSpec)
        ]
        assert len(event_ids) == len(set(event_ids)) > 0, name
        assert len(sub_ids) == len(set(sub_ids)), name


def test_stream_composition_does_not_depend_on_the_seed():
    # Stratified generators: the multiset of topic fan-outs (wire) is the
    # same for every seed; only ids, order and placement move.
    def fanouts(seed):
        subscriptions, _ = _stream("wire_pipelined", seed, rounds=0)
        per_topic = {}
        for spec in subscriptions:
            per_topic[spec.topic] = per_topic.get(spec.topic, 0) + 1
        return sorted(per_topic.values())

    assert fanouts(1) == fanouts(2)
    assert len(_stream("wire_pipelined", 1, rounds=0)[0]) == workloads.WireSizes().subscriptions


def test_spec_oracle_agrees_with_the_programs_matcher():
    from repro.pubsub.matching import MatchingEngine

    for name in ("wire_ackpaced", "sim_fanout", "sim_churn"):
        subscriptions, stream = _stream(name, 5, rounds=1)
        events = [item for item in stream if isinstance(item, workloads.EventSpec)][:60]
        reference = oracle.Oracle(subscriptions)
        engine = MatchingEngine()
        engine.add_many(workloads.to_subscription(spec) for spec in subscriptions)
        for spec in events:
            matched = [s.subscription_id for s in engine.match(workloads.to_event(spec))]
            assert sorted(matched) == sorted(reference.matching_ids(spec)), (name, spec)


def test_oracle_comparisons_count_missing_duplicated_and_unexpected():
    attempted, failed, _ = oracle.compare_counts({"e1": 2, "e2": 0}, {"e1": 1, "e3": 1})
    assert (attempted, failed) == (2, 2)
    expected = {("e1", "s1"), ("e1", "s2")}
    delivered = [("e1", "s1"), ("e1", "s1"), ("e9", "s1")]
    assert oracle.compare_pairs(expected, delivered)[:2] == (2, 3)
    assert oracle.compare_pairs(expected, sorted(expected))[1] == 0


# -- span arithmetic -------------------------------------------------------------


def test_self_time_is_duration_minus_child_spans():
    names = ["outer", "inner", "leaf"]
    spans = [
        # id, name, start, end, parent
        (2, 2, 2.0, 3.0, 1),   # leaf inside inner: 1 s
        (1, 1, 1.0, 5.0, 0),   # inner inside outer: 4 s, self 3 s
        (3, 1, 6.0, 7.0, 0),   # second inner: 1 s
        (0, 0, 0.0, 10.0, -1),  # outer: 10 s, self 10 - 4 - 1 = 5 s
    ]
    totals, counts = tracing.self_times(spans, names)
    assert totals == {"leaf": 1.0, "inner": 4.0, "outer": 5.0}
    assert counts == {"leaf": 1, "inner": 2, "outer": 1}
    assert sum(totals.values()) == 10.0  # self times partition the root span
    # Wrapper cost: `inside` comes off every span, `outside` off the parent
    # once per child.
    totals, _ = tracing.self_times(spans, names, cost_inside=0.1, cost_outside=0.2)
    assert abs(totals["outer"] - (5.0 - 0.1 - 2 * 0.2)) < 1e-9
    assert abs(totals["leaf"] - 0.9) < 1e-9


def test_wrappers_nest_and_survive_coroutines_and_generators():
    recorder = tracing.Recorder()

    def leaf():
        return 1

    def numbers():
        yield leaf_traced()
        yield leaf_traced()

    async def waits():
        await asyncio.sleep(0)
        return leaf_traced()

    leaf_traced = recorder.wrap("leaf", leaf)
    numbers_traced = recorder.wrap("numbers", numbers)
    waits_traced = recorder.wrap("waits", waits)

    assert list(numbers_traced()) == [1, 1]
    assert asyncio.run(waits_traced()) == 1
    by_id = {span[0]: span for span in recorder.spans}
    names = recorder.names
    leaves = [span for span in recorder.spans if names[span[1]] == "leaf"]
    assert len(leaves) == 3
    # Every leaf ran inside a segment of its generator / coroutine, and the
    # open-span stack is back to its sentinel.
    assert {names[by_id[span[4]][1]] for span in leaves} == {"numbers", "waits"}
    assert recorder.stack == [-1]
    # One coroutine call suspended once: two resumption segments.
    assert sum(1 for span in recorder.spans if names[span[1]] == "waits") == 2


def test_every_trace_target_exists_and_is_public():
    for layer, module_name, dotted in tracing.TARGETS:
        owner, attribute = tracing._resolve(module_name, dotted)
        assert callable(getattr(owner, attribute)), (module_name, dotted)
        assert not any(part.startswith("_") for part in dotted.split(".")), dotted
        assert layer in catalogue.SPAN_METRIC, layer


# -- sentinel --------------------------------------------------------------------


def test_sentinel_imports_nothing_from_the_program():
    with open(os.path.join(HERE, "sentinel.py"), encoding="utf-8") as handle:
        source = handle.read()
    imports = re.findall(r"^\s*(?:from|import)\s+([\w.]+)", source, flags=re.MULTILINE)
    assert imports and all(name.split(".")[0] in {"__future__", "time", "typing"}
                           for name in imports), imports
    import sentinel

    assert sentinel.kernel_unit() == sentinel.kernel_unit()  # deterministic work
    wall, cpu = sentinel.measure()
    assert wall > 0 and cpu > 0


# -- names agree everywhere --------------------------------------------------------


def test_benchmark_json_names_the_workloads_and_fits_the_contract():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert harness.rounds_for(spec["run_seconds"]) >= harness.MIN_ROUNDS


def test_metric_names_units_and_limits():
    every = catalogue.END_TO_END + catalogue.PER_LAYER
    names = [m.name for m in every] + list(harness.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    assert all(UNIT.match(m.unit) for m in every)
    assert all(m.better in ("higher", "lower") for m in every)
    assert 1 <= len(catalogue.END_TO_END) <= 16
    assert 1 <= len(catalogue.PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.10 for m in catalogue.END_TO_END)
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in catalogue.END_TO_END)
    assert set(catalogue.WHAT) == {m.name for m in every}
    assert set(catalogue.SPAN_METRIC.values()) <= {m.name for m in catalogue.PER_LAYER}
    for rules in catalogue.DOMINANCE.values():
        for spans, _relation, _share in rules:
            assert set(spans) <= set(catalogue.SPAN_METRIC) | {"RESIDUAL"}


def test_emitted_end_to_end_names_match_benchmark_json():
    setup = harness.Timed(wall_s=1.0, cpu_s=1.0, before=(1.0, 1.0), after=(1.0, 1.0))
    sample = harness.RoundSample(setup, events=10, pairs=20, p50_ms=1.0, p90_ms=2.0, p99_ms=3.0)
    emitted = harness.end_to_end([setup], [sample], rss_mb=1.0)
    assert list(emitted) == [m.name for m in catalogue.END_TO_END]


def test_correction_divides_rates_and_multiplies_durations():
    import sentinel

    # One reading at reference speed, one 50 % above: f = 1.25 on both clocks.
    readings = (sentinel.SENTINEL_REF_MOPS, sentinel.SENTINEL_REF_CPU_MOPS)
    fast = harness.Timed(wall_s=1.0, cpu_s=1.0, before=readings,
                         after=tuple(1.5 * r for r in readings))
    sample = harness.RoundSample(fast, events=1000, pairs=0, p50_ms=4.0, p90_ms=0.0, p99_ms=0.0)
    emitted = harness.end_to_end([fast], [sample], rss_mb=1.0)
    assert emitted["events_per_s"] == 800.0      # 1000 / 1.25
    assert emitted["latency_p50_ms"] == 5.0      # 4 * 1.25
    assert emitted["setup_s"] == 1.25
