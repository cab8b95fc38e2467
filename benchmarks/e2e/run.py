"""Entry point of the repo benchmark.

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

runs one workload in this (fresh) process and prints one JSON object as
the last line of standard output: ``correct``, ``attempted``, ``failed``
and ``metrics`` — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  See README.md for the rest
(``--list-metrics``, ``--aa``, ``--aa-disturbed``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def _reexec_with_fixed_hash_seed() -> None:
    """String hashing (dict/set iteration order of the program's tables)
    must not differ between runs of identical code."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured time; buys seconds/1.0 rounds, at least 15")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="directory for <workload>.spans.json (default .bench_out/)")
    parser.add_argument("--list-metrics", action="store_true")
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="A/A noise floor: N back-to-back sets of 5 runs per workload")
    parser.add_argument("--aa-disturbed", action="store_true",
                        help="add one set run beside a one-core spinner")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("benchmark needs the program under src/repro; not found", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import harness
    import metrics as catalogue

    if args.list_metrics:
        for metric in catalogue.END_TO_END + catalogue.PER_LAYER:
            bound = "" if metric.bound is None else "  bound %.0f %%" % (100 * metric.bound)
            print("%-44s %-9s %-6s%s  %s"
                  % (metric.name, metric.unit, metric.better, bound, catalogue.WHAT[metric.name]))
        return 0
    if args.aa or args.aa_disturbed:
        import aa

        return aa.main(
            args.aa, args.seconds, args.aa_disturbed,
            list(harness.WORKLOADS), {m.name: m.bound for m in catalogue.END_TO_END},
        )
    if args.workload not in harness.WORKLOADS:
        print("unknown workload %r; one of %s" % (args.workload, sorted(harness.WORKLOADS)),
              file=sys.stderr)
        return 2
    rounds = harness.rounds_for(args.seconds)
    problems = []
    if args.trace:
        out_dir = args.out or os.path.join(ROOT, ".bench_out")
        values, tally, problems = asyncio.run(
            harness.measure_per_layer(args.workload, args.seed, rounds, out_dir)
        )
        listed = catalogue.PER_LAYER
    else:
        values, tally = asyncio.run(
            harness.measure_end_to_end(args.workload, args.seed, rounds)
        )
        listed = catalogue.END_TO_END
    for note in tally.notes + problems:
        print("FAILED: " + note, file=sys.stderr)
    correct = tally.failed == 0 and bool(values) and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in listed if values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    _reexec_with_fixed_hash_seed()
    sys.exit(main())
