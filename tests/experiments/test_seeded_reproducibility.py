"""A seeded run prints the same thing whatever the process's string hash seed.

Sets and dicts keyed by strings iterate in ``hash()`` order, which Python
salts per process (``PYTHONHASHSEED``).  Wherever such an order reaches the
simulation's schedule, two runs with the same experiment seed diverge.  This
runs one small C2 mesh + replicate + replay point in two fresh interpreters
with different hash seeds and compares a digest of everything it reports.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")

SCENARIO = """
import hashlib, json
from repro.experiments.cluster_churn import run_cluster_churn

result = run_cluster_churn(
    topologies=("ring",),
    crash_rates=(0.75,),
    recovery_delays=(0.3,),
    scale=0.05,
    verify=True,
    replicate=2,
    replay=True,
)
blob = json.dumps([result.rows, result.tables, result.metrics], sort_keys=True, default=str)
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def _digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", SCENARIO],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return completed.stdout.strip()


def test_churn_mesh_replay_output_independent_of_hash_seed():
    # Hash seeds 0 and 1 happen to agree on the failure this guards
    # against; 0 and 5 do not.
    assert _digest("0") == _digest("5")
