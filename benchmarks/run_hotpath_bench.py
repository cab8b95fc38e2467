#!/usr/bin/env python
"""Run the hot-path micro-benchmarks and record a named snapshot.

Usage::

    python benchmarks/run_hotpath_bench.py --label pr2 [--output BENCH_PR2.json]
    python benchmarks/run_hotpath_bench.py --label before --import-raw raw.json

Each invocation merges one labeled snapshot (per-test mean/median/stddev
seconds and round counts) into the output JSON and records its speedup
relative to the ``before`` snapshot.  A ``prN`` label defaults its output
to ``BENCH_PRN.json``, which holds that PR's snapshot only: the perf
trajectory is every ``BENCH_PR*.json`` read in PR order
(:func:`recorded_snapshots`), not history copied forward from file to
file (the documents up to PR 10 still carry their predecessors' copies).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_PR1.json")
BENCH_TARGETS = [
    "benchmarks/bench_hotpaths.py",
    "benchmarks/bench_x3_substrate_scale.py::test_x3a_single_event_match_latency",
]


def output_for_label(label: str) -> str:
    """``prN``-style labels get their own ``BENCH_PRN.json`` document."""
    match = re.fullmatch(r"pr(\d+)", label)
    if match:
        return os.path.join(REPO_ROOT, f"BENCH_PR{match.group(1)}.json")
    return DEFAULT_OUTPUT


def recorded_snapshots() -> dict:
    """Every labeled snapshot on disk: the ``BENCH_PR*.json`` documents
    read in PR order, a later document's copy of a label winning."""
    documents = []
    for path in glob.glob(os.path.join(REPO_ROOT, "BENCH_PR*.json")):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", os.path.basename(path))
        if match:
            documents.append((int(match.group(1)), path))
    snapshots: dict = {}
    for _, path in sorted(documents):
        with open(path) as handle:
            snapshots.update(json.load(handle).get("snapshots", {}))
    return snapshots


def run_benchmarks() -> dict:
    """Run pytest-benchmark on the hot-path suite; return the raw JSON."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        raw_path = handle.name
    try:
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                *BENCH_TARGETS,
                "-q",
                f"--benchmark-json={raw_path}",
            ],
            cwd=REPO_ROOT,
            env=env,
            check=True,
        )
        with open(raw_path) as raw:
            return json.load(raw)
    finally:
        os.unlink(raw_path)


def snapshot_from_raw(raw: dict) -> dict:
    """Reduce a pytest-benchmark JSON payload to the stats we track."""
    snapshot = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        entry = {
            "mean_s": stats["mean"],
            "median_s": stats["median"],
            "stddev_s": stats["stddev"],
            "min_s": stats["min"],
            "rounds": stats["rounds"],
        }
        # Scale benchmarks attach side-band measurements (RSS, batch
        # speedups, pool sizes) through benchmark.extra_info.
        if bench.get("extra_info"):
            entry["extra_info"] = bench["extra_info"]
        snapshot[bench["name"]] = entry
    return snapshot


def merge(output_path: str, label: str, snapshot: dict) -> dict:
    if os.path.exists(output_path):
        with open(output_path) as existing:
            document = json.load(existing)
    else:
        document = {
            "description": "Hot-path perf trajectory (benchmarks/bench_hotpaths.py); "
            "see PERFORMANCE.md",
            "snapshots": {},
            "speedups_vs_before": {},
        }
    document["snapshots"][label] = snapshot
    before = document["snapshots"].get("before") or recorded_snapshots().get("before")
    if before and label != "before":
        document["speedups_vs_before"][label] = {
            name: round(before[name]["mean_s"] / stats["mean_s"], 2)
            for name, stats in snapshot.items()
            if name in before and stats["mean_s"] > 0
        }
    with open(output_path, "w") as out:
        json.dump(document, out, indent=2, sort_keys=True)
        out.write("\n")
    return document


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True, help="snapshot name, e.g. before/pr2")
    parser.add_argument(
        "--output",
        default=None,
        help="output JSON (default: derived from the label, e.g. pr2 -> BENCH_PR2.json)",
    )
    parser.add_argument(
        "--import-raw",
        dest="import_raw",
        help="merge an existing pytest-benchmark JSON instead of running",
    )
    args = parser.parse_args()
    output = args.output if args.output else output_for_label(args.label)
    if args.import_raw:
        with open(args.import_raw) as handle:
            raw = json.load(handle)
    else:
        raw = run_benchmarks()
    document = merge(output, args.label, snapshot_from_raw(raw))
    speedups = document.get("speedups_vs_before", {}).get(args.label)
    if speedups:
        print(f"speedups vs before ({args.label}):")
        for name, ratio in sorted(speedups.items()):
            print(f"  {name}: {ratio:.2f}x")
    print(f"wrote snapshot {args.label!r} to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
