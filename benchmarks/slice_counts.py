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
* ``ingress_visits``: channels visited by ``_stage_mc_ingress``;
* ``xbar_transfers``: requests the crossbar moved
  (``ISlipArbiter.transfers``).

All but ``ingress_visits`` are printed per policy x VC class, and all but
``xbar_transfers`` as slice totals.  A cell's
standalone baselines count for the class of the first cell in its sweep
that needs them (``Runner.run`` simulates them inside that cell), so the
split is deterministic.

It also records the MEM-queue length a policy scans: at each decision
(``mem_q@decision``) and at each ``SchedulingPolicy.frfcfs_pick`` call
(``mem_q@pick``), as mean, p90 and max.  A change that deepens the
queues shows up there.

The counts and lengths do not depend on the host, so two trees can be
compared exactly where their timings would drown in run-to-run noise.  The
``table`` line is a digest of the 36 sweep rows: two trees that simulate
alike print the same one.

Everything but the ``wall_s`` line is compared with the committed
``slice_counts.expected``; any difference is printed and the script exits
1.  A change that moves a count on purpose re-records the file with
``--update`` and says why.

Usage::

    PYTHONPATH=src python benchmarks/slice_counts.py [--update]
"""

from __future__ import annotations

import difflib
import hashlib
import heapq
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

from repro.core.controller import MemoryController
from repro.core.policies.base import SchedulingPolicy
from repro.experiments import (
    ExperimentScale,
    default_grid_tasks,
    run_sweep,
    sweep_rows,
)
from repro.experiments.runner import Runner
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

#: The counts printed per class, and those printed as slice totals.
CLASS_KEYS = (
    "cycles", "sm_steps", "decisions", "wake_pushes", "islip_steps", "xbar_transfers",
)
TOTAL_KEYS = ("cycles", "sm_steps", "decisions", "wake_pushes", "islip_steps", "ingress_visits")
EXPECTED = Path(__file__).with_name("slice_counts.expected")


def install():
    """Wrap the counted engine methods (for this process only) and return
    the counts they add to, per class (``"FR-FCFS vc2"``), and the
    MEM-queue length histograms (length -> occurrences) at decisions and
    at ``frfcfs_pick``."""
    classes = defaultdict(Counter)
    # The running cell's class's counts (``Runner.run`` swaps them in).
    cell = {"counts": Counter()}
    lengths = {"decision": Counter(), "pick": Counter()}

    run = Runner.run

    def attributed_run(self, task):
        outer = cell["counts"]
        cell["counts"] = classes[f"{task.policy_name} vc{task.num_vcs}"]
        try:
            return run(self, task)
        finally:
            cell["counts"] = outer

    Runner.run = attributed_run

    def count_calls(cls, name: str, key: str) -> None:
        method = getattr(cls, name)

        def counted(self, *args, **kwargs):
            cell["counts"][key] += 1
            return method(self, *args, **kwargs)

        setattr(cls, name, counted)

    count_calls(GPUSystem, "step", "cycles")
    count_calls(SM, "step", "sm_steps")

    arbitrate = ISlipArbiter.step

    def counted_arbitrate(self, *args, **kwargs):
        counts = cell["counts"]
        before = self.transfers
        counts["islip_steps"] += 1
        try:
            return arbitrate(self, *args, **kwargs)
        finally:
            counts["xbar_transfers"] += self.transfers - before

    ISlipArbiter.step = counted_arbitrate

    tick = MemoryController.tick

    def counted_tick(self, cycle):
        if self._dirty or cycle >= self._next_wake:
            cell["counts"]["decisions"] += 1
            lengths["decision"][len(self.mem_queue)] += 1
        return tick(self, cycle)

    MemoryController.tick = counted_tick

    pick = SchedulingPolicy.frfcfs_pick

    def counted_pick(ctl, *args, **kwargs):
        lengths["pick"][len(ctl.mem_queue)] += 1
        return pick(ctl, *args, **kwargs)

    SchedulingPolicy.frfcfs_pick = staticmethod(counted_pick)

    ingress = GPUSystem._stage_mc_ingress

    def counted_ingress(self):
        cell["counts"]["ingress_visits"] += len(self._ingress_active)
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
            cell["counts"]["wake_pushes"] += 1
        heapq.heappush(heap, item)

    shim = types.ModuleType("heapq")
    shim.__dict__.update(heapq.__dict__)
    shim.heappush = heappush
    system_module.heapq = shim
    return classes, lengths


def summarize(histogram: Counter) -> str:
    """Mean, nearest-rank p90 and max of a length histogram."""
    total = sum(histogram.values())
    if not total:
        return "no samples"
    mean = sum(length * n for length, n in histogram.items()) / total
    rank = -(-total * 9 // 10)
    seen = 0
    for length in sorted(histogram):
        seen += histogram[length]
        if seen >= rank:
            p90 = length
            break
    return f"mean {mean:.2f}  p90 {p90}  max {max(histogram)}"


def report_lines(classes, lengths, table) -> list:
    """The deterministic report: per-class counts, slice totals, queue
    lengths and the table digest."""
    widths = [max(12, len(key) + 1) for key in CLASS_KEYS]
    lines = [f"{'class':15s}" + "".join(f"{k:>{w}s}" for k, w in zip(CLASS_KEYS, widths))]
    for name, counts in classes.items():
        lines.append(
            f"{name:15s}" + "".join(f"{counts[k]:>{w},d}" for k, w in zip(CLASS_KEYS, widths))
        )
    totals = sum(classes.values(), Counter())
    for key in TOTAL_KEYS:
        lines.append(f"{key:15s} {totals[key]:>10,d}")
    for key, histogram in lengths.items():
        lines.append(f"{'mem_q@' + key:15s} {summarize(histogram)}")
    digest = hashlib.sha256("\n".join(sorted(table)).encode()).hexdigest()[:16]
    lines.append(f"{'table':15s} {digest} ({len(table)} rows)")
    return lines


def main(argv) -> int:
    classes, lengths = install()
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
    lines = report_lines(classes, lengths, table)
    print("\n".join(lines))
    print(f"{'wall_s':15s} {wall:10.1f}  (counted, so slower than a plain run)")
    if "--update" in argv:
        EXPECTED.write_text("\n".join(lines) + "\n")
        print(f"recorded {EXPECTED.name}")
        return 0
    expected = EXPECTED.read_text().splitlines()
    if lines != expected:
        diff = difflib.unified_diff(expected, lines, EXPECTED.name, "this run", lineterm="")
        print("\n".join(diff), file=sys.stderr)
        print(f"FAIL: counts differ from {EXPECTED.name}", file=sys.stderr)
        return 1
    print(f"counts match {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
