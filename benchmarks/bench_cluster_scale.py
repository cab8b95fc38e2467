"""Benchmark C1 — cluster-layer sweep (batch size).

Runs the ``repro.experiments.cluster_scale`` driver once and checks the
structural properties that must hold at any machine speed: matching is
verified against the naive oracle (the driver raises on any mismatch),
every configuration delivers the same events, and batching
amortizes the per-cycle service overhead in simulated time (which is
hardware-independent, so it is safe to assert in CI).
"""

from __future__ import annotations

from benchmarks.conftest import bench_scale, run_once
from repro.experiments.cluster_scale import run_cluster_scale, run_routed_cluster_scale


def test_c1_cluster_scale_sweep(benchmark):
    result = run_once(
        benchmark,
        run_cluster_scale,
        scale=max(0.1, bench_scale()),
        verify=True,
    )
    print()
    print(result.summary())

    assert result.parameters["verified"] is True
    deliveries = {row["deliveries"] for row in result.rows}
    # Batching must not change what gets delivered.
    assert len(deliveries) == 1
    rows = {row["batch_size"]: row for row in result.rows}
    unbatched = rows[min(rows)]
    batched = rows[max(rows)]
    # Simulated time: batching amortizes the per-cycle overhead, so large
    # batches sustain at least the unbatched throughput and do not
    # increase mean queue delay under the same arrival process.
    assert batched["sim_throughput_eps"] >= unbatched["sim_throughput_eps"]
    assert batched["mean_delay_ms"] <= unbatched["mean_delay_ms"]


def test_c1b_routed_cluster_sweep(benchmark):
    result = run_once(
        benchmark,
        run_routed_cluster_scale,
        scale=max(0.1, bench_scale()),
        verify=True,
    )
    print()
    print(result.summary())

    assert result.parameters["verified"] is True
    # Routing must not change what gets delivered: every (topology, batch)
    # point delivers the oracle set, hence the same total count.
    deliveries = {row["deliveries"] for row in result.rows}
    assert len(deliveries) == 1
    by_topology = {}
    for row in result.rows:
        by_topology.setdefault(row["topology"], []).append(row)
    # Structural, machine-independent facts: the star bounds every path at
    # two hops, the line pays up to the full diameter.
    assert all(row["max_hops"] <= 2 for row in by_topology["star"])
    line_max = max(row["max_hops"] for row in by_topology["line"])
    assert line_max >= max(row["max_hops"] for row in by_topology["star"])
    for rows in by_topology.values():
        for row in rows:
            assert row["forwards_per_event"] > 0
            assert row["mean_e2e_delay_ms"] > 0
