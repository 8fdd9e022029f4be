#!/usr/bin/env python
"""Deterministic engine work counts on the ``grid_cold`` slice.

The benchmark's ``grid_cold`` workload (``benchmarks/suite/bench.py``)
times cold sweeps of 36 cells: G17, G19 x P2 x the nine figure policies
x VC1/VC2 at scale 0.05, one sweep per GPU and VC part.  This script
runs the same four parts in this process, each through ``run_sweep``
with a fresh ``Runner`` and no store, so every cell and its standalone
baselines simulate, and counts the work the engine does:

* ``cycles``: ``GPUSystem.step`` calls;
* ``sm_steps``: ``SM.step`` calls;
* ``decisions``: ``MemoryController.tick`` calls past the tick's wake
  gate (the controller was dirty or its wake had come);
* ``wake_pushes``: entries pushed onto a system's wake heap;
* ``islip_steps``: ``ISlipArbiter.step`` calls;
* ``ingress_visits``: channels visited by ``_stage_mc_ingress``.

The counts do not depend on the host, so two trees can be compared
exactly where their timings would drown in run-to-run noise.  The
``table`` line is a digest of the 36 sweep rows: two trees that simulate
alike print the same one.

Usage::

    PYTHONPATH=src python benchmarks/slice_counts.py
"""

from __future__ import annotations

import hashlib
import heapq
import sys
import time
import types
from collections import Counter

from repro.core.controller import MemoryController
from repro.experiments import (
    ExperimentScale,
    default_grid_tasks,
    run_sweep,
    sweep_rows,
)
from repro.gpu.sm import SM
from repro.noc.islip import ISlipArbiter
from repro.sim import system as system_module
from repro.sim.system import GPUSystem

GPUS = ("G17", "G19")
PIMS = ("P2",)
POLICIES = (
    "FCFS", "MEM-First", "PIM-First", "FR-FCFS", "FR-FCFS-Cap",
    "BLISS", "FR-RR-FCFS", "G&I", "F3FS",
)
VCS = (1, 2)
SCALE = ExperimentScale(num_channels=8, workload_scale=0.05, seed=1, starvation_factor=15)


def _count_calls(cls, name: str, counts: Counter, key: str) -> None:
    method = getattr(cls, name)

    def counted(self, *args, **kwargs):
        counts[key] += 1
        return method(self, *args, **kwargs)

    setattr(cls, name, counted)


def install() -> Counter:
    """Wrap the counted engine methods (for this process only) and return
    the counts they add to."""
    counts = Counter()
    _count_calls(GPUSystem, "step", counts, "cycles")
    _count_calls(SM, "step", counts, "sm_steps")
    _count_calls(ISlipArbiter, "step", counts, "islip_steps")

    tick = MemoryController.tick

    def counted_tick(self, cycle):
        if self._dirty or cycle >= self._next_wake:
            counts["decisions"] += 1
        return tick(self, cycle)

    MemoryController.tick = counted_tick

    ingress = GPUSystem._stage_mc_ingress

    def counted_ingress(self):
        counts["ingress_visits"] += len(self._ingress_active)
        return ingress(self)

    GPUSystem._stage_mc_ingress = counted_ingress

    # Wake heaps are told apart by identity; holding every system's heap
    # keeps its id from being reused by a later list.
    wake_heaps = {}
    init = GPUSystem.__init__

    def registering_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        wake_heaps[id(self._wake_heap)] = self._wake_heap

    GPUSystem.__init__ = registering_init

    def heappush(heap, item):
        if id(heap) in wake_heaps:
            counts["wake_pushes"] += 1
        heapq.heappush(heap, item)

    shim = types.ModuleType("heapq")
    shim.__dict__.update(heapq.__dict__)
    shim.heappush = heappush
    system_module.heapq = shim
    return counts


def main() -> int:
    counts = install()
    start = time.perf_counter()
    table = []
    for vcs in VCS:
        for gpu in GPUS:
            tasks = default_grid_tasks(
                gpu_subset=[gpu], pim_subset=list(PIMS),
                policy_names=list(POLICIES), vc_configs=(vcs,),
            )
            report = run_sweep(SCALE, tasks)
            table.extend(map(repr, sweep_rows(report.completed_outcomes())))
    wall = time.perf_counter() - start
    for key in ("cycles", "sm_steps", "decisions", "wake_pushes", "islip_steps",
                "ingress_visits"):
        print(f"{key:15s} {counts[key]:>10,d}")
    digest = hashlib.sha256("\n".join(sorted(table)).encode()).hexdigest()[:16]
    print(f"{'table':15s} {digest} ({len(table)} rows)")
    print(f"{'wall_s':15s} {wall:10.1f}  (counted, so slower than a plain run)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
