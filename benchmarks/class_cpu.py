#!/usr/bin/env python
"""In-process CPU seconds per policy x VC class on the ``grid_cold`` slice.

Runs the four sweeps of ``slice_counts.py`` (G17, G19 x P2 x the nine
figure policies x VC1/VC2 at scale 0.05, each through ``run_sweep`` with
a fresh ``Runner`` and no store) with nothing counted: the only wrapper
is one on ``Runner.run`` that charges the ``time.process_time`` spent
inside a cell to its class.  Time in a nested ``Runner.run`` (a scale
variant's child Runner) goes to the nested cell's class, and a cell's
standalone baselines count for the cell that simulates them, as in
``slice_counts.py``.

Every round runs all four sweeps; the report prints each class's median
over the rounds, with the lowest and highest round beside it, and the
same for the slice total.  Compare two trees by running the script in
each (alternately, on an otherwise idle host) and reading the medians
side by side.  It is a report, not a gate.

Usage::

    PYTHONPATH=src python benchmarks/class_cpu.py [--rounds N]   # N >= 5, default 5
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from collections import Counter, defaultdict

from repro.experiments import default_grid_tasks, run_sweep
from repro.experiments.runner import Runner
from slice_counts import GPUS, PIMS, POLICIES, SCALE, VCS


def install():
    """Wrap ``Runner.run`` (for this process only); return the CPU
    seconds it charges, per class (``"FR-FCFS vc2"``)."""
    seconds = Counter()
    state = {"class": None, "mark": 0.0}
    run = Runner.run

    def attributed_run(self, task):
        outer = state["class"]
        now = time.process_time()
        if outer is not None:
            seconds[outer] += now - state["mark"]
        state["class"], state["mark"] = f"{task.policy_name} vc{task.num_vcs}", now
        try:
            return run(self, task)
        finally:
            now = time.process_time()
            seconds[state["class"]] += now - state["mark"]
            state["class"], state["mark"] = outer, now

    Runner.run = attributed_run
    return seconds


def one_round(seconds: Counter) -> Counter:
    """Run the four slice sweeps once; the CPU seconds each class took."""
    seconds.clear()
    for vcs in VCS:
        for gpu in GPUS:
            tasks = default_grid_tasks(
                gpu_subset=[gpu], pim_subset=list(PIMS),
                policy_names=list(POLICIES), vc_configs=(vcs,),
            )
            run_sweep(SCALE, tasks)
    return Counter(seconds)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5, help="rounds (>= 5)")
    args = parser.parse_args(argv)
    if args.rounds < 5:
        parser.error(f"--rounds must be >= 5 (got {args.rounds})")
    seconds = install()
    per_class = defaultdict(list)
    totals = []
    for _ in range(args.rounds):
        round_seconds = one_round(seconds)
        for name, value in round_seconds.items():
            per_class[name].append(value)
        totals.append(sum(round_seconds.values()))
    print(f"{'class':15s} {'median_s':>9s} {'min_s':>8s} {'max_s':>8s}  ({args.rounds} rounds)")
    for name, values in [*per_class.items(), ("total", totals)]:
        print(
            f"{name:15s} {statistics.median(values):9.3f} "
            f"{min(values):8.3f} {max(values):8.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
