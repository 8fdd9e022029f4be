#!/usr/bin/env python
"""Perf-regression guards for the scheduler-bound benchmark scenario.

Both checks run the ``saturated_corun`` scenario (deep MEM queues every
cycle — the workload the indexed per-bank scheduler exists for) against
the committed baseline in ``benchmarks/results/BENCH_engine.json``:

* ``--check scheduler`` (default) fails below ``SCHEDULER_THRESHOLD`` of
  the baseline.  The 30% allowance absorbs CI-runner noise (shared
  machines, frequency scaling, cold first run) while still catching the
  kind of regression that matters: an accidental return to O(queue)
  scans shows up as a 2x+ slowdown, not 30%.
* ``--check telemetry`` holds the telemetry-*disabled* run within
  ``TELEMETRY_THRESHOLD`` (2%) of the baseline, guarding the promise
  that the dormant ``repro.obs`` hooks (``if telemetry is not None``
  along the request path, and the campaign metrics/heartbeat hooks —
  which live in the sweep coordinator, so a bench run never so much as
  constructs a ``StatusPublisher``) cost nothing when off.  Because 2%
  is inside machine-to-machine noise, this gate compares best-of-N
  against a baseline *regenerated on the same machine* (CI reruns the
  perf smoke benchmark first, which rewrites BENCH_engine.json).
* ``--check store`` holds the same run within ``STORE_THRESHOLD`` (2%)
  of the baseline: the result-store integration (``repro.store``) lives
  entirely in the experiment layer (Runner lookups before a system is
  built), so a bench run — which never attaches a store — must not get
  any slower.  A regression here means store code leaked into the cycle
  engine's request path.
* ``--check resilience`` holds the same run within
  ``RESILIENCE_THRESHOLD`` (2%) of the baseline, guarding the dormant
  watchdog hook (``if watchdog is not None`` once per engine step) and
  the fault-injection hooks (a single ``None`` check per cell, outside
  the engine entirely).  A regression here means resilience code leaked
  into the per-cycle path.
* ``--check slots`` is a free (no measurement) structural guard: every
  hot-path record class must be ``__slots__``-only — an instance
  ``__dict__`` sneaking back in (a new attribute added outside
  ``__slots__``, a refactor dropping the declaration) costs ~60 bytes
  and a dict allocation per object on paths that create hundreds of
  thousands of them per run.
* ``--check all`` runs every gate on a single set of measurements.

Usage::

    PYTHONPATH=src python benchmarks/check_perf_regression.py [--check all]

Exit status 0 on pass, 1 on regression (or a missing baseline entry).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.perf.bench import run_engine_bench

SCENARIO = "saturated_corun"
SCHEDULER_THRESHOLD = 0.70  # fail below 70% of the committed baseline
TELEMETRY_THRESHOLD = 0.98  # dormant telemetry hooks must stay within 2%
STORE_THRESHOLD = 0.98  # dormant result-store hooks must stay within 2%
RESILIENCE_THRESHOLD = 0.98  # dormant watchdog/fault hooks must stay within 2%
BASELINE_PATH = Path(__file__).parent / "results" / "BENCH_engine.json"
REPEATS = 3  # best-of-N: the guard asks "can it still go fast", not "mean"


def check_slots() -> bool:
    """Every hot-path record class must be ``__slots__``-only."""
    from repro.cache.l2 import LookupResult
    from repro.noc.queues import BoundedQueue
    from repro.request import Request

    ok = True
    for cls in (Request, BoundedQueue, LookupResult):
        # A class (or any non-object base) without __slots__ carries a
        # '__dict__' descriptor in its class dict.
        has_dict = any(
            "__dict__" in vars(base) for base in cls.__mro__ if base is not object
        )
        print(
            f"{'FAIL' if has_dict else 'PASS'} [slots]: "
            f"{cls.__module__}.{cls.__name__} "
            f"{'has an instance __dict__' if has_dict else 'is __slots__-only'}"
        )
        ok = ok and not has_dict
    return ok


def measure_best(repeats: int = REPEATS) -> float:
    best = 0.0
    for _ in range(repeats):
        payload = run_engine_bench(
            scenario_names=[SCENARIO],
            stage_breakdown=False,
        )
        best = max(best, payload["scenarios"][SCENARIO]["fast"]["cycles_per_sec"])
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        choices=["scheduler", "telemetry", "store", "resilience", "slots", "all"],
        default="scheduler",
        help="which throughput floor(s) to enforce",
    )
    args = parser.parse_args(argv)

    baseline_doc = json.loads(BASELINE_PATH.read_text())
    scenario_doc = baseline_doc["scenarios"].get(SCENARIO, {})

    thresholds = {
        "scheduler": SCHEDULER_THRESHOLD,
        "telemetry": TELEMETRY_THRESHOLD,
        "store": STORE_THRESHOLD,
        "resilience": RESILIENCE_THRESHOLD,
    }
    selected = list(thresholds) if args.check == "all" else [args.check]
    failed = False

    if args.check in ("slots", "all"):
        failed = failed or not check_slots()
        if args.check == "slots":
            return 1 if failed else 0
        selected = [c for c in selected if c != "slots"]

    try:
        baseline = scenario_doc["fast"]["cycles_per_sec"]
    except KeyError:
        print(f"FAIL: no '{SCENARIO}' baseline in {BASELINE_PATH}")
        return 1

    best = measure_best()
    for check in selected:
        threshold = thresholds[check]
        floor = threshold * baseline
        ok = best >= floor
        failed = failed or not ok
        print(
            f"{'PASS' if ok else 'FAIL'} [{check}]: {SCENARIO} "
            f"best-of-{REPEATS} {best:.1f} cyc/s vs baseline {baseline:.1f} "
            f"(floor {floor:.1f} = {threshold:.0%})"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
