"""A/A noise floor: identical code, back-to-back sets of runs.

``run.py --aa N`` makes N sets; a set is :data:`RUNS_PER_SET` fresh-process
runs of every workload, each run with another seed, reduced to the median per
end-to-end metric.  Printed per (workload, metric): the medians, the
largest set-to-set deviation of those medians beside the metric's bound,
and the run-to-run spread (IQR / median over all runs, which is what the
acceptance check of the benchmark computes).  ``--aa-disturbed`` adds one
more set run beside a one-core spinner, to show the sentinel correction
holding when the machine is not quiet.  The output is Markdown; the
committed copy is NOISE.md.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from harness import iqr_share

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
RUNS_PER_SET = 5


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One fresh-process run; returns its end-to-end metric values."""
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, check=False, timeout=600,
    )
    lines = completed.stdout.decode("utf-8").strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if completed.returncode != 0 or not result.get("correct"):
        raise RuntimeError("run failed: %s seed %d: %s" % (workload, seed, result))
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def one_set(workloads: List[str], first_seed: int, seconds: float,
            log) -> Dict[str, Dict[str, List[float]]]:
    """:data:`RUNS_PER_SET` runs of every workload, interleaved so that slow
    drift of the machine spreads over all workloads alike."""
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    for index in range(RUNS_PER_SET):
        for workload in workloads:
            started = time.monotonic()
            metrics = one_run(workload, first_seed + index, seconds)
            for name, value in metrics.items():
                values[workload].setdefault(name, []).append(value)
            log("  %s seed %d: %.0f s  %s" % (
                workload, first_seed + index, time.monotonic() - started,
                "  ".join("%s=%.5g" % item for item in metrics.items()),
            ))
    return values


def spinner() -> subprocess.Popen:
    """A child process that keeps one core busy until terminated."""
    return subprocess.Popen([sys.executable, "-c", "while True: pass"])


def report(sets: List[Dict[str, Dict[str, List[float]]]], labels: List[str],
           bounds: Dict[str, float]) -> str:
    lines = [
        "| workload | metric | " + " | ".join("median " + label for label in labels)
        + " | max set-to-set deviation | bound | run-to-run IQR/median (quiet runs) |",
        "|---|---|" + "---|" * len(labels) + "---|---|---|",
    ]
    worst = 0.0
    for workload in sets[0]:
        for metric, bound in bounds.items():
            medians = [statistics.median(s[workload][metric]) for s in sets]
            base = medians[0]
            deviation = max(abs(m - base) / base for m in medians[1:]) if len(medians) > 1 else 0.0
            quiet = [v for s, label in zip(sets, labels) if "spinner" not in label
                     for v in s[workload][metric]]
            worst = max(worst, deviation / bound)
            lines.append(
                "| %s | %s | %s | %.2f %% | %.0f %% | %.2f %% |" % (
                    workload, metric,
                    " | ".join("%.4g" % m for m in medians),
                    100 * deviation, 100 * bound, 100 * iqr_share(quiet),
                )
            )
    lines.append("")
    lines.append("Largest deviation as a share of its bound: %.0f %%." % (100 * worst))
    return "\n".join(lines)


def main(sets_wanted: int, seconds: float, disturbed: bool,
         workloads: List[str], bounds: Dict[str, float]) -> int:
    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    sets = []
    labels = []
    for index in range(sets_wanted):
        log("set %d (quiet)" % (index + 1))
        sets.append(one_set(workloads, 1000 * (index + 1), seconds, log))
        labels.append("set %d" % (index + 1))
    if disturbed:
        log("set beside a one-core spinner")
        hog = spinner()
        try:
            sets.append(one_set(workloads, 1000 * (sets_wanted + 1), seconds, log))
        finally:
            hog.terminate()
            hog.wait()
        labels.append("beside spinner")
    print(report(sets, labels, bounds))
    return 0
