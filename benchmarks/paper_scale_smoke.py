#!/usr/bin/env python
"""Paper-scale smoke: a short full-scale window must complete in CI time.

Everything else in the repo runs the laptop-scale ``SystemConfig.scaled()``
configuration (4–8 channels, 8–18 SMs) because contention phenomena are
per-channel and scale-free in the ratios that matter.  This smoke is the
one place the *full* ``SystemConfig.paper()`` machine (Table I: 32
channels x 16 banks, 80 SMs) is built and stepped — it guards the claim
that the engine's per-cycle cost stays proportional to work, not machine
size, and that nothing in the engine breaks at 8x the SM count and 4x
the channel count of the configs the tests sweep.

Both kernels loop on a GPU-heavy 8:2 SM split, so every channel sees
mixed MEM+PIM traffic.
The window is deliberately short — this is a "does it complete" gate
with a loose wall-clock ceiling, not a benchmark.

Usage::

    PYTHONPATH=src python benchmarks/paper_scale_smoke.py

Exit status 0 on success, 1 on failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.engine_soa import create_system
from repro.request import reset_request_ids
from repro.workloads import get_gpu_kernel, get_pim_kernel

#: Window length: long enough to fill the deep paper-scale MEM queues
#: and cross several kernel-launch boundaries, short enough for CI.
DEFAULT_MAX_CYCLES = 5_000

#: Loose wall-clock ceiling (seconds).  The window takes a few seconds
#: on a laptop core; the ceiling only catches pathological blow-ups
#: (an accidental O(machine-size) scan per cycle), not runner noise.
DEFAULT_BUDGET = 600.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-cycles", type=int, default=DEFAULT_MAX_CYCLES)
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=DEFAULT_BUDGET,
        help="fail if the window takes longer than this",
    )
    args = parser.parse_args(argv)

    reset_request_ids()
    config = SystemConfig.paper()
    gpu_sms = config.num_sms * 8 // 10  # the standard GPU-heavy 8:2 split
    system = create_system(config, PolicySpec("FR-FCFS"), seed=1)
    system.add_kernel(get_gpu_kernel("G17"), num_sms=gpu_sms, loop=True)
    system.add_kernel(get_pim_kernel("P1"), num_sms=config.num_sms - gpu_sms, loop=True)

    start = time.perf_counter()
    result = system.run(max_cycles=args.max_cycles, until_all_complete_once=False)
    wall = time.perf_counter() - start

    ok = True
    if result.cycles != args.max_cycles:
        print(f"FAIL: simulated {result.cycles} cycles, expected {args.max_cycles}")
        ok = False
    issued = sum(c.stats.mem_issued for c in system.controllers)
    pim = sum(c.stats.pim_issued for c in system.controllers)
    if issued == 0 or pim == 0:
        print(f"FAIL: no traffic issued (mem={issued}, pim={pim})")
        ok = False
    if wall > args.budget_seconds:
        print(f"FAIL: {wall:.1f}s exceeds the {args.budget_seconds:.0f}s budget")
        ok = False
    status = "PASS" if ok else "FAIL"
    print(
        f"{status} [paper-scale]: {config.num_channels}ch x "
        f"{config.num_sms}SM window of {result.cycles} cycles in {wall:.1f}s "
        f"({result.cycles / wall:,.0f} cyc/s; mem={issued}, pim={pim})"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
