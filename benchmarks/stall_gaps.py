#!/usr/bin/env python
"""Measure the stall guard's margin: the longest healthy no-progress gap.

Every ``GPUSystem`` arms a watchdog whose window
(:func:`repro.resilience.watchdog.stall_window`) must be far longer than
any stretch a healthy system spends without progress, and short enough
to refuse a livelock well inside a co-run's cycle budget.  This script
runs, with every engine step followed by a progress-signature check:

* every committed table (``benchmarks/test_*.py``: each figure at its
  defaults, plus the mesh and energy tables);
* the paper-scale smoke windows (``paper_scale_smoke.py``);
* the competitive grid at the setup of record (scale 0.12, starvation
  15, G6/G17/G19 x P1/P2/P7 x the six paper policies x VC1/VC2) with
  refresh on.

It prints, per group, the longest gap (cycles between progress-signature
changes while work is outstanding), the window, and the smallest
competitive cycle budget, and exits 1 unless every gap is at most an
eighth of its system's window.  The tables are rewritten byte-identical.
Takes about 3 minutes on one core::

    PYTHONPATH=src:benchmarks python benchmarks/stall_gaps.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments import ExperimentScale, Runner, make_tasks, run_sweep
from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec
from repro.resilience.watchdog import outstanding_work, progress_signature
from repro.sim.system import GPUSystem

HERE = Path(__file__).parent

#: One record per finished GPUSystem.run: [group, gap, window, budget];
#: the tables' mesh and refresh-on systems form groups of their own.
RECORDS = []
GROUP = ["tables"]

_step, _run, _corun = GPUSystem.step, GPUSystem.run, Runner.competitive_system


def _probed_step(self):
    _step(self)
    signature = progress_signature(self)
    probe = self.__dict__.setdefault("_gap_probe", [None, 0, 0])
    if signature != probe[0]:
        probe[0], probe[1] = signature, self.cycle
    elif outstanding_work(self):
        probe[2] = max(probe[2], self.cycle - probe[1])


def _probed_run(self, *args, **kwargs):
    result = _run(self, *args, **kwargs)
    gap = self.__dict__.get("_gap_probe", [None, 0, 0])[2]
    group = GROUP[0]
    if group == "tables" and self.config.noc_topology == "mesh":
        group = "tables, mesh"
    elif group == "tables" and self.config.refresh_enabled:
        group = "tables, refresh"
    RECORDS.append([group, gap, self.watchdog.window, self.__dict__.get("_budget")])
    return result


def _probed_corun(self, *args, **kwargs):
    corun = _corun(self, *args, **kwargs)
    corun.system._budget = corun.budget
    return corun


def main() -> int:
    GPUSystem.step, GPUSystem.run = _probed_step, _probed_run
    Runner.competitive_system = _probed_corun

    tables = sorted(str(path) for path in HERE.glob("test_*.py"))
    if pytest.main(["-q", "-p", "no:cacheprovider", *tables]) != 0:
        return 1

    GROUP[0] = "paper-scale smoke"
    import paper_scale_smoke

    if paper_scale_smoke.main([]) != 0:
        return 1

    GROUP[0] = "refresh-on grid"
    scale = ExperimentScale(
        workload_scale=0.12, starvation_factor=15, seed=1, refresh_enabled=True
    )
    policies = [PolicySpec(name) for name in PAPER_POLICY_ORDER]
    report = run_sweep(scale, make_tasks(["G6", "G17", "G19"], ["P1", "P2", "P7"], policies))
    if report.failed_outcomes:
        return 1

    ok = True
    print(f"{'group':17s} {'runs':>5s} {'max gap':>8s} {'window':>7s} {'min budget':>11s}")
    for group in dict.fromkeys(row[0] for row in RECORDS):
        rows = [row for row in RECORDS if row[0] == group]
        budgets = [row[3] for row in rows if row[3] is not None]
        windows = sorted({row[2] for row in rows})
        print(
            f"{group:17s} {len(rows):5d} {max(row[1] for row in rows):8d} "
            f"{'/'.join(map(str, windows)):>7s} {min(budgets) if budgets else '-':>11}"
        )
        ok = ok and all(8 * row[1] <= row[2] for row in rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
