"""A seeded run prints the same thing whatever the process's string hash seed.

Sets and dicts keyed by strings iterate in ``hash()`` order, which Python
salts per process (``PYTHONHASHSEED``).  Wherever such an order reaches the
simulation's schedule, two runs with the same experiment seed diverge.  Each
scenario runs in two fresh interpreters with different hash seeds and
compares a digest of everything it reports: one small C2 mesh + replicate +
replay point, and the route audit log of a star cluster's control plane.
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


AUDIT_SCENARIO = """
import hashlib, json
from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.pubsub.subscriptions import Operator, Predicate, Subscription

cluster = BrokerCluster(route_audit=True)
names = build_cluster_topology("star", 6, cluster)
for index in range(18):
    predicates = (Predicate("topic", Operator.EQ, f"t{index % 3}"),)
    if index % 4:
        predicates += (Predicate("priority", Operator.GE, index % 5),)
    cluster.subscribe(names[index % 6], Subscription(
        event_type="news.story",
        predicates=predicates,
        subscriber=f"user{index % 4}",
        subscription_id=f"s{index}",
    ))
blob = json.dumps(cluster.route_audit.as_dicts(), sort_keys=True, default=str)
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def _digest(hash_seed: str, scenario: str = SCENARIO) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", scenario],
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


def test_route_audit_order_independent_of_hash_seed():
    assert _digest("0", AUDIT_SCENARIO) == _digest("5", AUDIT_SCENARIO)
