"""Metrics: fairness/throughput (Section III-C) and summary statistics."""

from repro.metrics.fairness import (
    collaborative_speedup,
    fairness_index,
    ideal_collaborative_speedup,
    speedup,
    system_throughput,
)
from repro.metrics.stats import arithmetic_mean, geometric_mean
from repro.metrics.timeline import TimelineSample, TimelineSampler

__all__ = [
    "arithmetic_mean",
    "collaborative_speedup",
    "fairness_index",
    "geometric_mean",
    "ideal_collaborative_speedup",
    "speedup",
    "system_throughput",
    "TimelineSample",
    "TimelineSampler",
]
