"""Engine observability: per-stage counters and the ``repro bench`` harness.

This package measures the *simulator itself* (wall-clock per engine stage,
simulated cycles per second), not the simulated machine.  See
``docs/performance.md`` for how these numbers relate to the engine's
active-set scheduling.
"""

from repro.perf.counters import EngineCounters
from repro.perf.bench import (
    BenchScenario,
    SCENARIOS,
    TRACE_SCENARIOS,
    build_scenario_system,
    resolve_scenario,
    run_engine_bench,
)

__all__ = [
    "EngineCounters",
    "BenchScenario",
    "SCENARIOS",
    "TRACE_SCENARIOS",
    "build_scenario_system",
    "resolve_scenario",
    "run_engine_bench",
]
