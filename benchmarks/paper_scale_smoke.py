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
mixed MEM+PIM traffic.  The window runs once per policy in
:data:`EXPECTED_ISSUED`: FR-FCFS, and BLISS and F3FS, whose MEM picks scan
the paper-scale queues, the deepest the repo simulates.
The window is deliberately short — this is a "does it complete" gate
with a loose wall-clock ceiling, not a benchmark.  At the default window
it also gates bit identity at a machine size the figure-grid digests do
not cover: each policy's MEM and PIM issue counts must equal its entry in
:data:`EXPECTED_ISSUED` exactly (a deliberate model change updates them),
and the system's always-armed stall guard must have scanned at least
once (it is armed, and its window fits the run).
With ``--telemetry`` the same windows run with telemetry on: the counts
must not move, and the PIM hop histograms must hold exactly the PIM ops
that completed within the window (a PIM op retires as it issues, but is
folded only once it lands).

Usage::

    PYTHONPATH=src python benchmarks/paper_scale_smoke.py [--telemetry]

Exit status 0 on success, 1 on failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.request import reset_request_ids
from repro.sim.system import GPUSystem
from repro.workloads import get_gpu_kernel, get_pim_kernel

#: Window length: long enough to fill the deep paper-scale MEM queues
#: and cross several kernel-launch boundaries, short enough for CI.
DEFAULT_MAX_CYCLES = 5_000

#: (MEM, PIM) requests issued over the default window, per policy.
EXPECTED_ISSUED = {
    "FR-FCFS": (4533, 32686),
    "BLISS": (3552, 29961),
    "F3FS": (3537, 33754),
}

#: Loose wall-clock ceiling (seconds) per window.  A window takes a few seconds
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
        help="fail if a window takes longer than this",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="run with telemetry on and check the folded PIM op count",
    )
    args = parser.parse_args(argv)
    ok = True
    for policy in EXPECTED_ISSUED:
        ok = run_window(policy, args) and ok
    return 0 if ok else 1


def run_window(policy: str, args) -> bool:
    """Run the window under ``policy``; print one verdict line."""
    reset_request_ids()
    config = SystemConfig.paper()
    gpu_sms = config.num_sms * 8 // 10  # the standard GPU-heavy 8:2 split
    system = GPUSystem(config, PolicySpec(policy), seed=1)
    if args.telemetry:
        system.enable_telemetry(timeline_interval=None)
    system.add_kernel(get_gpu_kernel("G17"), num_sms=gpu_sms, loop=True)
    system.add_kernel(get_pim_kernel("P1"), num_sms=config.num_sms - gpu_sms, loop=True)

    start = time.perf_counter()
    result = system.run(max_cycles=args.max_cycles, until_all_complete_once=False)
    wall = time.perf_counter() - start

    ok = True
    if result.cycles != args.max_cycles:
        print(f"FAIL: {policy} simulated {result.cycles} cycles, expected {args.max_cycles}")
        ok = False
    issued = sum(c.stats.mem_issued for c in system.controllers)
    pim = sum(c.stats.pim_issued for c in system.controllers)
    if issued == 0 or pim == 0:
        print(f"FAIL: {policy} issued no traffic (mem={issued}, pim={pim})")
        ok = False
    elif args.max_cycles == DEFAULT_MAX_CYCLES and (issued, pim) != EXPECTED_ISSUED[policy]:
        mem_expected, pim_expected = EXPECTED_ISSUED[policy]
        print(
            f"FAIL: {policy} issued mem={issued}, pim={pim}; the {DEFAULT_MAX_CYCLES}-cycle "
            f"window issues mem={mem_expected}, pim={pim_expected}"
        )
        ok = False
    if args.max_cycles == DEFAULT_MAX_CYCLES and system.watchdog.stalls_checked < 1:
        # Every system arms its stall guard; its window must fit this run.
        print(
            f"FAIL: {policy} stall guard never scanned in {result.cycles} cycles "
            f"(window {system.watchdog.window})"
        )
        ok = False
    if args.telemetry:
        # Ops run one at a time per executor, so only each executor's last
        # op can still be in flight; it ends with its last busy interval.
        executed = sum(e.stats.ops_executed for e in system.pim_execs)
        in_flight = sum(
            1
            for e in system.pim_execs
            if e.busy_intervals and e.busy_intervals[-1][1] >= system.cycle
        )
        folded = system.telemetry.stage_hist("pim", "total").total
        if folded != executed - in_flight:
            print(
                f"FAIL: {policy} telemetry folded {folded} PIM ops; "
                f"{executed - in_flight} of {executed} completed in the window"
            )
            ok = False
    if wall > args.budget_seconds:
        print(f"FAIL: {policy} took {wall:.1f}s, over the {args.budget_seconds:.0f}s budget")
        ok = False
    status = "PASS" if ok else "FAIL"
    label = f"paper-scale {policy}"
    if args.telemetry:
        label += f", telemetry: {folded} PIM ops folded"
    print(
        f"{status} [{label}]: {config.num_channels}ch x "
        f"{config.num_sms}SM window of {result.cycles} cycles in {wall:.1f}s "
        f"({result.cycles / wall:,.0f} cyc/s; mem={issued}, pim={pim})"
    )
    return ok


if __name__ == "__main__":
    sys.exit(main())
