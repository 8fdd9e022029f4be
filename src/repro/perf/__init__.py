"""Engine observability: per-stage wall-clock counters.

This package measures the *simulator itself* (wall-clock per engine
stage), not the simulated machine.  The benchmark of record is the
figure-grid suite under ``benchmarks/suite/``; see ``docs/performance.md``.
"""

from repro.perf.counters import EngineCounters

__all__ = ["EngineCounters"]
