"""Descriptive statistics helpers for the characterization figures.

Figure 4 reports distributions (interquartile boxes with median and
extremes); Figure 10a uses geometric means.  These helpers avoid pulling
heavier dependencies into the experiment layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class BoxSummary:
    """Five-number summary backing one box in a box plot."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of pre-sorted data."""
    if not ordered:
        raise ValueError("empty data")
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    fraction = position - low
    low_value = ordered[low]
    high_value = ordered[high]
    value = low_value * (1 - fraction) + high_value * fraction
    # Clamp to the bracketing order statistics: the weighted sum can
    # round outside [low, high] for subnormal inputs (5e-324 * 0.5
    # underflows to 0.0), which would break quantile ordering.
    if value < low_value:
        return low_value
    if value > high_value:
        return high_value
    return value


def box_summary(values: Sequence[float]) -> BoxSummary:
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("empty data")
    return BoxSummary(
        minimum=ordered[0],
        q1=_quantile(ordered, 0.25),
        median=_quantile(ordered, 0.5),
        q3=_quantile(ordered, 0.75),
        maximum=ordered[-1],
    )


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; values must be positive (Figure 10a normalization)."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("empty data")
    if any(v <= 0 for v in data):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in data) / len(data))


def arithmetic_mean(values: Sequence[float]) -> float:
    data = [float(v) for v in values]
    if not data:
        raise ValueError("empty data")
    return sum(data) / len(data)


def normalize(values: Sequence[float], baseline: float) -> List[float]:
    """Divide every value by a baseline (e.g. standalone arrival rate)."""
    if baseline == 0:
        raise ValueError("baseline must be non-zero")
    return [float(v) / baseline for v in values]
