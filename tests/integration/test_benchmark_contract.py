"""The repo benchmark's systems still build and run on the current program.

``benchmarks/e2e`` drives real ``BrokerServer``s, clients and sim clusters
through the program's public names.  A refactor that renames one of them
passes every other test and only fails when the benchmark itself runs.
Each case here does, per workload, what one benchmark run does: one cold
set-up, one round, the full-set verification and a read of the system's
counters and gauges — untimed, with the oracle's tally asserted clean.
"""

from __future__ import annotations

import asyncio
import os
import sys

import pytest

E2E = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
    "e2e",
)
if E2E not in sys.path:
    sys.path.insert(0, E2E)

import harness  # noqa: E402


async def _run_once(name: str) -> harness.Tally:
    run = harness.Run(name, 1)
    try:
        await run.cold_setups(1)
        await run.round()
        await run.verify()
        run.system.counters()
        run.system.gauges()
    except harness.RunAborted:
        pass
    finally:
        await run.teardown()
    return run.tally


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_workload_runs_clean(name):
    tally = asyncio.run(_run_once(name))
    assert tally.failed == 0, tally.notes
    assert tally.attempted > 0
