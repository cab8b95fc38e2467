"""Frozen machine-speed sentinel.  DO NOT EDIT after the PR that added it.

The benchmark divides every rate (and multiplies every duration) by how
fast *this* kernel ran around the measured round (it is timed right
before and right after every round and set-up), relative to
:data:`SENTINEL_REF_MOPS`, so a run on a slow machine phase (frequency
step, a busy sibling vCPU, hypervisor steal) reports the same corrected
numbers as a run on a fast one.  That only works while the
kernel and the reference constants never change: editing either silently
rescales every corrected metric of every later run.

The kernel is interpreter-bound dict / str / bytes / list work — the same
instruction mix the system under test spends its time in — and imports
nothing from ``repro``, so no change to the program can move it.
"""

from __future__ import annotations

import time
from typing import Tuple

#: Loop iterations of one kernel unit (~5 ms on the reference box).
UNIT_OPS = 12_000

#: Units per measurement; the median unit is reported (~15 ms total).
UNITS = 3

#: Reference speed in million loop iterations per second, measured on the
#: box this benchmark was sized on (2 vCPUs, CPython 3.11), wall clock
#: and CPU clock.  Frozen: corrected metrics are expressed "at reference
#: machine speed".
SENTINEL_REF_MOPS = 2.75
SENTINEL_REF_CPU_MOPS = 2.75


def kernel_unit() -> int:
    """One deterministic unit of dict/str/bytes/list work."""
    table = {}
    rows = []
    acc = 0
    for index in range(UNIT_OPS):
        key = "k%d" % (index & 1023)
        table[key] = table.get(key, 0) + index
        blob = key.encode("ascii")
        acc += len(blob) + blob[-1]
        if index & 7 == 0:
            rows.append((index, key, blob))
    rows.sort(key=lambda row: row[1])
    joined = b"".join(row[2] for row in rows)
    return acc + len(joined) + len(table)


def measure() -> Tuple[float, float]:
    """Run the sentinel; returns ``(wall_mops, cpu_mops)``.

    Each clock's figure is the *median* of :data:`UNITS` back-to-back
    units, so one preemption inside the ~15 ms window does not read as a
    slow machine.
    """
    walls = []
    cpus = []
    for _ in range(UNITS):
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        kernel_unit()
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        walls.append(wall)
        cpus.append(cpu)
    walls.sort()
    cpus.sort()
    scale = UNIT_OPS / 1e6
    return scale / walls[UNITS // 2], scale / cpus[UNITS // 2]
