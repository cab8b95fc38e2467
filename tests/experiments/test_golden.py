"""Every paper experiment reproduces its golden table exactly.

The shape tests in ``test_experiments.py`` hold inequalities; these hold the
numbers.  A simplification of the paper-side or routing code must leave every
file under ``golden/`` as it is; rewrite one only with
``regenerate_golden.py`` and a stated reason.
"""

from __future__ import annotations

import json

import pytest

from tests.experiments.regenerate_golden import CASES, cell_diff, golden_path, golden_table


@pytest.mark.parametrize("experiment_id", list(CASES))
def test_experiment_matches_golden_table(experiment_id):
    expected = json.loads(golden_path(experiment_id).read_text())
    diffs = cell_diff(expected, golden_table(experiment_id))
    assert not diffs, f"{experiment_id} differs from {golden_path(experiment_id).name}:\n" + "\n".join(diffs)


def test_cell_diff_names_changed_and_retyped_cells():
    golden = {"rows": [{"substrate": "flooding baseline", "deliveries": 15}], "paper": {}}
    changed = {"rows": [{"substrate": "flooding baseline", "deliveries": 16}], "paper": {}}
    retyped = {"rows": [{"substrate": "flooding baseline", "deliveries": 15.0}], "paper": {}}
    assert cell_diff(golden, json.loads(json.dumps(golden))) == []
    assert cell_diff(golden, changed) == ["rows[0].deliveries: golden 15, got 16"]
    assert cell_diff(golden, retyped) == ["rows[0].deliveries: golden 15, got 15.0"]
    assert cell_diff(golden, {"rows": [], "paper": {}}) == [
        "rows[0]: golden {'substrate': 'flooding baseline', 'deliveries': 15}, got '<missing>'"
    ]
