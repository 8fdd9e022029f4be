"""Per-stage wall-clock counters for the cycle engine.

Attached to a system via :meth:`GPUSystem.enable_perf_counters`; every
subsequent :meth:`GPUSystem.step` then times each pipeline stage
individually.  The instrumented step path is slower than the plain one
(two clock reads per stage), so counters are off by default and the
figure-grid suite (``benchmarks/suite/``) takes its wall times from
uninstrumented passes.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict


class EngineCounters:
    """Accumulated wall-clock seconds and invocation counts per stage."""

    __slots__ = ("clock", "seconds", "calls")

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, stage: str, elapsed: float) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + elapsed
        self.calls[stage] = self.calls.get(stage, 0) + 1

    def reset(self) -> None:
        """Zero all accumulators (e.g. between tasks on a shared counter)."""
        self.seconds.clear()
        self.calls.clear()

    def merge(self, other: "EngineCounters") -> None:
        """Fold another counter set in (cross-worker/cross-run aggregation)."""
        self.merge_snapshot({"seconds": other.seconds, "calls": other.calls})

    def merge_snapshot(self, snapshot: Dict[str, Dict]) -> None:
        """Fold in a :meth:`snapshot` dict (the picklable cross-process form)."""
        for stage, value in snapshot.get("seconds", {}).items():
            self.seconds[stage] = self.seconds.get(stage, 0.0) + value
        for stage, value in snapshot.get("calls", {}).items():
            self.calls[stage] = self.calls.get(stage, 0) + value

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict copy of the accumulators, safe to pickle and merge."""
        return {"seconds": dict(self.seconds), "calls": dict(self.calls)}
