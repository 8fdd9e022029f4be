"""System-level performance metrics (Section III-C, Eyerman & Eeckhout [15]).

Speedups are computed against standalone executions of the same kernel on
the same SM allocation; the Fairness Index quantifies the disparity between
co-executing kernels' speedups, and System Throughput their sum.
"""

from __future__ import annotations

from typing import Iterable


def speedup(standalone_cycles: int, contended_cycles: int) -> float:
    """Execution-time ratio; 1.0 means no slowdown under contention."""
    if standalone_cycles <= 0:
        raise ValueError("standalone time must be positive")
    if contended_cycles <= 0:
        raise ValueError("contended time must be positive")
    return standalone_cycles / contended_cycles


def fairness_index(speedup_a: float, speedup_b: float) -> float:
    """Equation (1): min of the two speedup ratios; 1.0 is perfectly fair.

    0.0 denotes starvation of one side (the paper assigns 0 when a kernel
    makes no progress).
    """
    if speedup_a < 0 or speedup_b < 0:
        raise ValueError("speedups must be non-negative")
    if speedup_a == 0 or speedup_b == 0:
        return 0.0
    return min(speedup_a / speedup_b, speedup_b / speedup_a)


def system_throughput(speedups: Iterable[float]) -> float:
    """Sum of co-executing kernels' speedups (kernel execution rate)."""
    total = 0.0
    for value in speedups:
        if value < 0:
            raise ValueError("speedups must be non-negative")
        total += value
    return total


def collaborative_speedup(
    standalone_gpu: int, standalone_pim: int, concurrent_cycles: int
) -> float:
    """Speedup of concurrent execution vs sequential (Figure 11)."""
    if concurrent_cycles <= 0:
        raise ValueError("concurrent time must be positive")
    return (standalone_gpu + standalone_pim) / concurrent_cycles


def ideal_collaborative_speedup(standalone_gpu: int, standalone_pim: int) -> float:
    """Perfect overlap: total time equals the longer kernel (Figure 11 Ideal)."""
    longer = max(standalone_gpu, standalone_pim)
    if longer <= 0:
        raise ValueError("standalone times must be positive")
    return (standalone_gpu + standalone_pim) / longer
