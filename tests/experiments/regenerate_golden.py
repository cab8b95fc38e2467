"""The paper's tables at test scale, and the script that rewrites their golden files.

Each case runs one experiment driver with the arguments its shape test in
``test_experiments.py`` / ``test_ablations.py`` uses and keeps the result's
``rows``, ``tables`` and ``paper`` minus the columns that hold wall-clock
timings.  ``test_golden.py`` compares a fresh run of every case with its file
under ``golden/``; a change that alters a paper table has to rewrite the file
on purpose, with this script, and say so.

Run from the repository root::

    PYTHONPATH=src python -m tests.experiments.regenerate_golden [ID ...]
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.experiments import (
    run_collaborative_experiment,
    run_content_video_experiment,
    run_flow_comparison,
    run_matching_scalability,
    run_offer_weight_ablation,
    run_push_pull_experiment,
    run_query_weighting_ablation,
    run_routing_scalability,
    run_topic_feed_experiment,
    run_update_filtering_experiment,
)
from repro.experiments.content_video import build_content_video_setup
from repro.experiments.harness import ExperimentResult
from tests.experiments.test_experiments import TINY

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class GoldenCase(NamedTuple):
    run: Callable[[], ExperimentResult]
    # Columns measured with a clock: they differ on every run, so they are
    # dropped from rows and tables before comparing.
    timing_columns: Tuple[str, ...] = ()


@functools.lru_cache(maxsize=None)
def _ablation_setup():
    return build_content_video_setup(browsing_scale=0.06, seed=17)


CASES: Dict[str, GoldenCase] = {
    "E1": GoldenCase(lambda: run_topic_feed_experiment(config=TINY)),
    "E2": GoldenCase(
        lambda: run_content_video_experiment(term_counts=(5, 30, 200), browsing_scale=0.08, k=100)
    ),
    "F1/F2": GoldenCase(lambda: run_flow_comparison(config=TINY)),
    "X1": GoldenCase(
        lambda: run_update_filtering_experiment(
            config=TINY, max_updates_per_day=1.0, unsubscribe_after_ignored=3
        )
    ),
    "X2": GoldenCase(lambda: run_collaborative_experiment(config=TINY)),
    "X3a": GoldenCase(
        lambda: run_matching_scalability(subscription_counts=(50, 500), events_per_point=100),
        timing_columns=("seconds", "events_per_second"),
    ),
    "X3b": GoldenCase(
        lambda: run_routing_scalability(depth=3, fanout=2, subscribers=12, publications=40)
    ),
    "X4": GoldenCase(
        lambda: run_push_pull_experiment(client_counts=(1, 4), num_feeds=5, duration_hours=6)
    ),
    "A1/A3": GoldenCase(
        lambda: run_offer_weight_ablation(
            n_terms=10, tf_exponents=(0.0, 1.0), max_fractions=(0.5, 1.0), setup=_ablation_setup()
        )
    ),
    "A2/A4": GoldenCase(
        lambda: run_query_weighting_ablation(n_terms_values=(5, 30), setup=_ablation_setup())
    ),
}


def golden_path(experiment_id: str) -> Path:
    return GOLDEN_DIR / f"{experiment_id.replace('/', '_')}.json"


def golden_table(experiment_id: str) -> dict:
    """Run one case; its non-timing output as JSON would store it."""
    case = CASES[experiment_id]
    result = case.run()
    if result.experiment_id != experiment_id:
        raise ValueError(f"case {experiment_id} ran experiment {result.experiment_id}")

    def untimed(rows: List[dict]) -> List[dict]:
        return [
            {column: value for column, value in row.items() if column not in case.timing_columns}
            for row in rows
        ]

    table = {
        "rows": untimed(result.rows),
        "tables": {name: untimed(rows) for name, rows in result.tables.items()},
        "paper": result.paper,
    }
    return json.loads(json.dumps(table))


def cell_diff(expected: object, actual: object, path: str = "") -> List[str]:
    """One line per cell that differs in value or in type (``15`` vs ``15.0``)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = list(expected) + [key for key in actual if key not in expected]
        lines: List[str] = []
        for key in keys:
            lines += cell_diff(expected.get(key, "<missing>"), actual.get(key, "<missing>"),
                               f"{path}.{key}" if path else str(key))
        return lines
    if isinstance(expected, list) and isinstance(actual, list):
        lines = []
        for index in range(max(len(expected), len(actual))):
            lines += cell_diff(
                expected[index] if index < len(expected) else "<missing>",
                actual[index] if index < len(actual) else "<missing>",
                f"{path}[{index}]",
            )
        return lines
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: golden {expected!r}, got {actual!r}"]
    return []


def main(argv: List[str]) -> int:
    ids = argv or list(CASES)
    unknown = [experiment_id for experiment_id in ids if experiment_id not in CASES]
    if unknown:
        print(f"unknown experiment ids: {unknown}; known: {list(CASES)}", file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    for experiment_id in ids:
        path = golden_path(experiment_id)
        path.write_text(json.dumps(golden_table(experiment_id), indent=1) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
